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
and the centroid lands in D7.  Any fixed convention
satisfying the partition property gives the same results for continuous
splines; this one is documented so that low-degree (discontinuous) splines
evaluate reproducibly.  face_bary turns macro-barycentrics into those of the
located face: integers over one denominator for exact input, floats for
float input, both from the matrices of face_bary_matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import DegenerateTriangle, DomainError
from .rational import common_denominator, is_exact


class Point2(NamedTuple):
    x: object
    y: object


Bary3 = tuple  # (b1, b2, b3), summing to 1 for points and 0 for directions

#: Face corner indices, 1-based into the vertex list.
FACES = (
    (1, 4, 7), (4, 2, 8), (2, 5, 8), (5, 3, 9), (3, 6, 9), (6, 1, 7),
    (4, 8, 10), (8, 5, 10), (5, 9, 10), (9, 6, 10), (6, 7, 10), (7, 4, 10),
)

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
    """A macrotriangle with its ten split vertices and twelve faces."""

    v: tuple  # 10 Point2, 0-based storage for vertices v1..v10
    faces: tuple = FACES
    area: object = None  # signed area of [v1, v2, v3]

    def vertex(self, i: int) -> Point2:
        """Vertex by 1-based index."""
        return self.v[i - 1]

    def face_corners(self, fi: int) -> tuple:
        """Corner points of face fi (1-based)."""
        i, j, k = self.faces[fi - 1]
        return (self.v[i - 1], self.v[j - 1], self.v[k - 1])


def _mid(a: Point2, b: Point2) -> Point2:
    return Point2((a.x + b.x) / 2, (a.y + b.y) / 2)


def make_frame(v1: Point2, v2: Point2, v3: Point2) -> PS12Frame:
    """Build the 12-split frame over the macrotriangle [v1, v2, v3].

    Raises DegenerateTriangle when the corners are collinear.  Exact corners
    are stored as Fractions, so every split vertex is exact.
    """
    v1, v2, v3 = Point2(*v1), Point2(*v2), Point2(*v3)
    if is_exact(v1 + v2 + v3):
        v1, v2, v3 = (Point2(Fraction(p.x), Fraction(p.y)) for p in (v1, v2, v3))
    area2 = signed_area2(v1, v2, v3)
    if area2 == 0:
        raise DegenerateTriangle("macrotriangle corners are collinear")
    v4, v5, v6 = _mid(v1, v2), _mid(v2, v3), _mid(v1, v3)
    v7, v8, v9 = _mid(v4, v6), _mid(v4, v5), _mid(v5, v6)
    v10 = Point2((v1.x + v2.x + v3.x) / 3, (v1.y + v2.y + v3.y) / 3)
    return PS12Frame(v=(v1, v2, v3, v4, v5, v6, v7, v8, v9, v10), area=area2 / 2)


@lru_cache(maxsize=1)
def reference_frame() -> PS12Frame:
    """The exact unit frame [(0,0), (1,0), (0,1)] used for all cached data."""
    z, o = Fraction(0), Fraction(1)
    return make_frame(Point2(z, z), Point2(o, z), Point2(z, o))


def bary_coords(corners, p: Point2) -> Bary3:
    """Barycentric coordinates of p with respect to the triangle with the
    given three corners."""
    a, b, c = corners
    d = signed_area2(a, b, c)
    b1 = signed_area2(p, b, c) / d
    b2 = signed_area2(a, p, c) / d
    return (b1, b2, 1 - b1 - b2)


def to_bary(frame: PS12Frame, p: Point2) -> Bary3:
    """Barycentric coordinates of p with respect to the macrotriangle."""
    return bary_coords(frame.v[:3], Point2(*p))


def from_bary(frame: PS12Frame, b: Bary3) -> Point2:
    v1, v2, v3 = frame.v[0], frame.v[1], frame.v[2]
    return Point2(b[0] * v1.x + b[1] * v2.x + b[2] * v3.x,
                  b[0] * v1.y + b[1] * v2.y + b[2] * v3.y)


def direction_coords(corners, u: Point2) -> Bary3:
    """Directional coordinates (summing to zero) of the vector u with
    respect to the triangle with the given three corners."""
    a, b, c = corners
    det = signed_area2(a, b, c)
    d1 = (u.x * (b.y - c.y) - u.y * (b.x - c.x)) / det
    d2 = (u.y * (a.x - c.x) - u.x * (a.y - c.y)) / det
    return (d1, d2, -d1 - d2)


def locate_face_bary(b1, b2, b3) -> Optional[int]:
    """Face index for macro-barycentric coordinates, or None outside.

    Implements the documented sign-test cascade; every point of the closed
    macrotriangle maps to exactly one face.
    """
    if not (b1 >= 0 and b2 >= 0 and b3 >= 0):  # NaN too
        return None
    # 2 b >= 1 rather than b >= 1/2: doubling is exact in both layers
    if 2 * b1 >= 1:
        return 1 if b2 >= b3 else 6
    if 2 * b2 >= 1:
        return 2 if b1 >= b3 else 3
    if 2 * b3 >= 1:
        return 4 if b2 >= b1 else 5
    if b2 >= b1:
        if b1 >= b3:
            return 7
        return 8 if b2 >= b3 else 9
    if b3 >= b1:
        return 10
    return 11 if b3 >= b2 else 12


def locate_face(frame: PS12Frame, p: Point2) -> Optional[int]:
    """Face of the 12-split containing p under the half-open convention."""
    return locate_face_bary(*to_bary(frame, p))


# ---------------------------------------------------------------------------
# Dihedral symmetries
# ---------------------------------------------------------------------------

#: The six symmetries as permutations of the corner indices (1-based images
#: of corners 1, 2, 3): identity, two rotations, three reflections.
S3_ELEMENTS = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))

_MID_OF = {frozenset((1, 2)): 4, frozenset((2, 3)): 5, frozenset((1, 3)): 6}
_INNER_MID_OF = {frozenset((4, 6)): 7, frozenset((4, 5)): 8, frozenset((5, 6)): 9}


@lru_cache(maxsize=None)
def s3_vertex_permutation(sigma: tuple) -> tuple:
    """Extend a corner permutation to all ten split vertices.

    Returns the tuple (p1, ..., p10) with pi the 1-based image of vertex i.
    Midpoints map to midpoints of image pairs, inner midpoints likewise, and
    the centroid is fixed.
    """
    if sorted(sigma) != [1, 2, 3]:
        raise DomainError(f"not a permutation of (1,2,3): {sigma}")
    img = [0] * 11
    img[1], img[2], img[3] = sigma
    img[4] = _MID_OF[frozenset((img[1], img[2]))]
    img[5] = _MID_OF[frozenset((img[2], img[3]))]
    img[6] = _MID_OF[frozenset((img[1], img[3]))]
    img[7] = _INNER_MID_OF[frozenset((img[4], img[6]))]
    img[8] = _INNER_MID_OF[frozenset((img[4], img[5]))]
    img[9] = _INNER_MID_OF[frozenset((img[5], img[6]))]
    img[10] = 10
    return tuple(img[1:])


def s3_apply_multiset(sigma: tuple, m: tuple) -> tuple:
    """Push a 10-entry multiplicity vector through a corner permutation."""
    perm = s3_vertex_permutation(sigma)
    out = [0] * 10
    for i in range(10):
        out[perm[i] - 1] = m[i]
    return tuple(out)


def s3_apply_bary(sigma: tuple, b: Bary3) -> Bary3:
    """Image of a barycentric triple: coordinates permuted so the affine
    symmetry sends sum b_i v_i to sum b_i v_sigma(i)."""
    out = [None] * 3
    for i in range(3):
        out[sigma[i] - 1] = b[i]
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

@lru_cache(maxsize=1)
def face_bary_matrices() -> tuple:
    """For each face, the 3x3 matrix sending macro-barycentrics to
    face-barycentrics on the reference frame (exact)."""
    frame = reference_frame()
    mats = []
    for fi in range(1, 13):
        # face barycentrics are affine, so their values at the three macro
        # corners are the columns of the matrix (gamma = M . beta)
        cols = [bary_coords(frame.face_corners(fi), corner) for corner in frame.v[:3]]
        mats.append(tuple(zip(*cols)))
    return tuple(mats)


@lru_cache(maxsize=1)
def _layer_face_bary_matrices() -> tuple:
    """Per face, the matrix of face_bary_matrices as integer rows over the
    lcm d of its denominators, (d, rows), and as float rows."""
    out = []
    for m in face_bary_matrices():
        d, nums = common_denominator([x for row in m for x in row])
        # Fraction * float rounds the Fraction first, so float products keep their bits
        out.append(((d, (nums[0:3], nums[3:6], nums[6:9])), tuple(tuple(map(float, r)) for r in m)))
    return tuple(out)


def face_bary(fi: int, beta: Bary3) -> tuple:
    """(D, g): the face-barycentric coordinates g / D on face fi of the
    macro-barycentrics beta (any frame); macro-directional triples map to
    face-directional ones.

    Exact beta gives integers g over D = d E, with E the lcm of beta's
    denominators and d that of the face's matrix; float beta gives floats
    over D = 1, with the bits of the products with the Fraction matrices.
    """
    (d, m), floats = _layer_face_bary_matrices()[fi - 1]
    if is_exact(beta):
        e, beta = common_denominator(beta)
        d *= e
    else:
        d, m = 1, floats
    return d, tuple(r[0] * beta[0] + r[1] * beta[1] + r[2] * beta[2] for r in m)
