from fractions import Fraction as F

import pytest

from ps12splines.errors import DegenerateTriangle
from ps12splines.geometry import (
    Point2,
    locate_face,
    locate_face_bary,
    make_frame,
    reference_frame,
    s3_apply_multiset,
    s3_compose,
    s3_vertex_permutation,
    S3_ELEMENTS,
    to_bary,
)


def test_make_frame_unit_triangle_vertices():
    fr = make_frame(Point2(F(0), F(0)), Point2(F(1), F(0)), Point2(F(0), F(1)))
    assert fr.vertex(4) == (F(1, 2), F(0))
    assert fr.vertex(6) == (F(0), F(1, 2))
    assert fr.vertex(7) == (F(1, 4), F(1, 4))
    assert fr.vertex(10) == (F(1, 3), F(1, 3))
    assert fr.area == F(1, 2)


def test_make_frame_equilateral_centroid():
    # for the equilateral triangle the centroid is the circumcenter
    a, b, c = Point2(0.0, 0.0), Point2(2.0, 0.0), Point2(1.0, 3.0 ** 0.5)
    fr = make_frame(a, b, c)
    cx, cy = fr.vertex(10)
    for p in (a, b, c):
        assert abs((p.x - cx) ** 2 + (p.y - cy) ** 2 - (4 / 3)) < 1e-12


def test_make_frame_collinear_raises():
    with pytest.raises(DegenerateTriangle):
        make_frame(Point2(F(0), F(0)), Point2(F(1), F(1)), Point2(F(2), F(2)))


def test_to_bary_examples(ref):
    assert to_bary(ref, ref.vertex(1)) == (1, 0, 0)
    assert to_bary(ref, ref.vertex(10)) == (F(1, 3), F(1, 3), F(1, 3))
    assert to_bary(ref, ref.vertex(7)) == (F(1, 2), F(1, 4), F(1, 4))


def test_faces_tile_macrotriangle(ref):
    # the 12 closed faces have pairwise disjoint interiors and cover the whole
    total = F(0)
    for fi in range(1, 13):
        a, b, c = ref.face_corners(fi)
        total += abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2
    assert total == ref.area


def test_halfopen_partition_dense_grid(ref):
    # 10^4 rational points, including all vertices and points on every edge:
    # exactly one face indicator is set for each
    n = 0
    denom = 100
    for i in range(denom + 1):
        for j in range(denom + 1 - i):
            p = Point2(F(i, denom), F(j, denom))
            fi = locate_face(ref, p)
            assert fi is not None and 1 <= fi <= 12
            n += 1
    assert n == 5151
    for v in ref.v:
        assert locate_face(ref, v) is not None
    assert locate_face(ref, Point2(F(2), F(2))) is None
    assert locate_face(ref, Point2(F(-1, 100), F(1, 2))) is None


def test_halfopen_interior_point_face1(ref):
    assert locate_face(ref, Point2(F(1, 4), F(1, 16))) == 1
    assert locate_face_bary(F(1, 3), F(1, 3), F(1, 3)) == 7  # centroid convention


def test_locate_face_deterministic_on_edges(ref):
    # interior edge [v4, v10] boundary between faces 7 and 12: fixed answer
    p = Point2(F(5, 12), F(1, 6))  # midpoint of v4 and v10
    first = locate_face(ref, p)
    assert first == locate_face(ref, p)
    # membership: the point is on the closure of both faces
    assert first in (7, 12)


def test_affine_equivariance():
    src = reference_frame()
    # orientation-preserving affine map
    A = ((F(2), F(1)), (F(1), F(3)))
    t = (F(-1), F(4))

    def img(p):
        return Point2(A[0][0] * p.x + A[0][1] * p.y + t[0],
                      A[1][0] * p.x + A[1][1] * p.y + t[1])

    dst = make_frame(img(src.v[0]), img(src.v[1]), img(src.v[2]))
    for p in [Point2(F(1, 3), F(1, 5)), Point2(F(1, 2), F(0)), Point2(F(0), F(0)),
              Point2(F(1, 4), F(1, 4)), Point2(F(2, 5), F(3, 10))]:
        assert locate_face(src, p) == locate_face(dst, img(p))


def test_s3_rotation_and_reflection():
    ident = s3_vertex_permutation((1, 2, 3))
    assert ident == tuple(range(1, 11))
    rot = s3_vertex_permutation((2, 3, 1))
    assert rot == (2, 3, 1, 5, 6, 4, 8, 9, 7, 10)
    refl = s3_vertex_permutation((2, 1, 3))
    assert refl == (2, 1, 3, 4, 6, 5, 8, 7, 9, 10)


def test_s3_homomorphism_all_pairs():
    for sg in S3_ELEMENTS:
        for tu in S3_ELEMENTS:
            comp = s3_compose(sg, tu)
            ps, pt = s3_vertex_permutation(sg), s3_vertex_permutation(tu)
            expect = tuple(ps[pt[i] - 1] for i in range(10))
            assert s3_vertex_permutation(comp) == expect


def test_s3_multiset_action_orbit():
    K = tuple(int(c) for c in "600101") + (0,) * 4
    orbit = {s3_apply_multiset(s, K) for s in S3_ELEMENTS}
    labels = {"".join(map(str, m[:6])) for m in orbit}
    assert labels == {"600101", "060110", "006011"}


def test_face_bary_exact_is_the_fraction_matrix_product():
    """Exact points and directional triples give integers over one
    denominator equal to the products with the Fraction matrices."""
    import random
    from ps12splines.geometry import face_bary, face_bary_matrices
    rng = random.Random(20)
    for fi, m in enumerate(face_bary_matrices(), start=1):
        for total in (1, 0, 1, 0):
            b1, b2 = (F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2))
            beta = (b1, b2, total - b1 - b2)
            want = tuple(m[r][0] * beta[0] + m[r][1] * beta[1] + m[r][2] * beta[2]
                         for r in range(3))
            den, got = face_bary(fi, beta)
            assert all(type(g) is int for g in got) and tuple(F(g, den) for g in got) == want
        den, got = face_bary(fi, (1, 0, 0))
        assert tuple(F(g, den) for g in got) == tuple(row[0] for row in m)


def test_float_face_barycentrics_match_fraction_products():
    """Float beta goes through a float copy of the face matrices; the bits
    are those of the products with the Fraction matrices, over D = 1."""
    import random
    from ps12splines.geometry import face_bary, face_bary_matrices
    rng = random.Random(21)
    for fi, m in enumerate(face_bary_matrices(), start=1):
        for _ in range(50):
            beta = tuple(rng.uniform(-1, 2) for _ in range(3))
            want = tuple(m[r][0] * beta[0] + m[r][1] * beta[1] + m[r][2] * beta[2]
                         for r in range(3))
            den, got = face_bary(fi, beta)
            assert den == 1 and [g.hex() for g in got] == [w.hex() for w in want]
