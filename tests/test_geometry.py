import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ps12splines.dual_functionals import build_lambda
from ps12splines.errors import DegenerateTriangle, OutsideDomain
from ps12splines.geometry import (
    EDGES,
    INTERIOR_LINES,
    PS12Frame,
    Point2,
    VERTEX_BARY,
    _bary,
    bary_coords,
    bary_image,
    face_bary,
    from_bary,
    locate_face,
    locate_face_bary,
    make_frame,
    reference_frame,
    s3_apply_multiset,
    s3_vertex_permutation,
    S3_ELEMENTS,
    signed_area2,
    to_bary,
)
from ps12splines.simplex_spline import _locate, _ref_points
from ps12splines.spline_fn import Spline, eval_spline


def test_make_frame_unit_triangle_vertices():
    fr = make_frame(Point2(F(0), F(0)), Point2(F(1), F(0)), Point2(F(0), F(1)))
    assert fr.vertex(4) == (F(1, 2), F(0))
    assert fr.vertex(6) == (F(0), F(1, 2))
    assert fr.vertex(7) == (F(1, 4), F(1, 4))
    assert fr.vertex(10) == (F(1, 3), F(1, 3))
    assert fr.area == F(1, 2)


@pytest.mark.parametrize("corners", [
    ((0, 0), (1, 0), (0, 1)),
    ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
    ((3, -1), (F(13, 5), 7), (-2, F(1, 9))),
])
def test_a_frame_built_directly_keeps_exact_corners_exact(corners):
    """PS12Frame converts exact corners to Fractions itself, so a frame
    built from int or Fraction corners is make_frame's frame, with exact
    split vertices, area and functional points."""
    direct, made = PS12Frame(tuple(Point2(*c) for c in corners)), make_frame(*corners)
    assert direct == made and direct.corners == made.corners
    assert direct.v == made.v and direct.area == made.area
    assert all(type(c) is F for p in direct.v for c in p) and type(direct.area) is F
    assert [lam.point for lam in build_lambda(direct)] == [lam.point for lam in build_lambda(made)]
    assert all(type(c) is F for lam in build_lambda(direct) for c in lam.point)


def test_a_mixed_frame_stores_its_exact_corners_as_fractions():
    """On a frame with a float coordinate, each corner whose coordinates
    are both exact is stored as Fractions and every other coordinate as
    given, directly and through make_frame alike."""
    corners = ((0, 0), (2 ** 53 + 1, 0), (1, 2.5))
    direct, made = PS12Frame(tuple(Point2(*c) for c in corners)), make_frame(*corners)
    assert direct.corners == made.corners == corners
    assert [tuple(map(type, p)) for p in direct.corners] == [(F, F), (F, F), (int, float)]
    assert direct._int_corners is None and type(direct.area2) is float
    assert direct.v[3] == (F(2 ** 53 + 1, 2), 0)


def _spelled_out_split(v1, v2, v3) -> tuple:
    """The ten split vertices by the midpoint and centroid formulas:
    v4..v6 the edge midpoints, v7..v9 the midpoints of the medial
    triangle's sides, v10 the centroid."""
    def mid(a, b):
        return Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
    v4, v5, v6 = mid(v1, v2), mid(v2, v3), mid(v1, v3)
    return (v1, v2, v3, v4, v5, v6, mid(v4, v6), mid(v4, v5), mid(v5, v6),
            Point2((v1.x + v2.x + v3.x) / 3, (v1.y + v2.y + v3.y) / 3))


_coordinate = st.fractions(-20, 20, max_denominator=30)


@settings(max_examples=40, deadline=None)
@given(corners=st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=3))
def test_exact_frame_is_the_spelled_out_split(corners):
    """make_frame builds the split vertices as images of VERTEX_BARY; on
    exact corners they are the formulas' vertices, all Fractions."""
    v1, v2, v3 = (Point2(*c) for c in corners)
    assume(signed_area2(v1, v2, v3) != 0)
    frame = make_frame(v1, v2, v3)
    assert frame.v == _spelled_out_split(v1, v2, v3)
    assert all(type(c) is F for p in frame.v for c in p)
    assert frame.v == tuple(bary_image(frame.v[:3], b) for b in VERTEX_BARY)


@settings(max_examples=60, deadline=None)
@given(corners=st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=3),
       p=st.tuples(_coordinate, _coordinate | st.integers(-20, 20)),
       scale=st.sampled_from([(1, 0), (F(1, 10 ** 6), 0), (10 ** 6, 0), (1, 10 ** 8)]))
def test_exact_to_bary_is_bary_coords_in_fractions(corners, p, scale):
    """Exact to_bary, two integer cross products over the frame's integer
    corners, equals bary_coords in Fraction arithmetic, also on frames
    scaled by 1e-6 or 1e6 or moved by 1e8, where the coordinates are those
    of the unmoved frame (barycentrics are affine invariant)."""
    k, off = scale
    v = [Point2(k * x + off, k * y + off) for x, y in corners]
    assume(signed_area2(*v) != 0)
    frame, q = make_frame(*v), Point2(k * p[0] + off, k * p[1] + off)
    got = to_bary(frame, q)
    assert all(type(b) is F for b in got)
    assert got == bary_coords(frame.corners, q) == bary_coords([Point2(*c) for c in corners],
                                                               Point2(*p))


def test_reference_frame_and_its_integer_points_are_the_spelled_out_split():
    z, o = F(0), F(1)
    ref = _spelled_out_split(Point2(z, z), Point2(o, z), Point2(z, o))
    assert reference_frame().v == ref
    assert _ref_points() == tuple(Point2(12 * p.x, 12 * p.y) for p in ref)
    assert all(type(c) is int for p in _ref_points() for c in p)


def test_float_frame_moves_only_the_medial_midpoints():
    """On float corners v1..v6 and the centroid keep the formulas' bits;
    v7..v9, now (2 a + b + c) / 4 and its rotations, may differ from the
    midpoints of midpoints by rounding only."""
    rng = random.Random(3)
    moved = 0
    for _ in range(200):
        corners = [Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        got, want = make_frame(*corners).v, _spelled_out_split(*corners)
        assert [p for i, p in enumerate(got) if i not in (6, 7, 8)] == \
            [p for i, p in enumerate(want) if i not in (6, 7, 8)]
        for p, q in zip(got[6:9], want[6:9]):
            assert abs(p.x - q.x) <= 1e-14 and abs(p.y - q.y) <= 1e-14
            moved += p != q
    assert moved


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


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_locate_face_snaps_float_edge_points_as_every_evaluator_does(seed):
    """On the three macro edges of a float frame, in both orientations, locate_face gives
    _locate's face wherever eval_spline evaluates, roundoff below 0 included; a point 1e-6 of
    the frame outside an edge is None and outside for eval_spline too.  Seed None is the frame
    (0.1, 0.2), (1.3, 0.1), (0.4, 0.9), on whose edge v2 v3 the unsnapped cascade lost 859 of
    2000 points."""
    rng = random.Random(seed)
    corners = [(0.1, 0.2), (1.3, 0.1), (0.4, 0.9)] if seed is None else \
        [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
    assert abs(signed_area2(*map(Point2._make, corners))) > 0.1
    for frame in (make_frame(*corners), make_frame(*corners[::-1])):
        s = Spline(frame, "c", tuple(float(i) for i in range(39)))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            a, b, c = (frame.corners[n] for n in (i, j, k))
            for t in (rng.random() for _ in range(400)):
                p = Point2((1 - t) * a.x + t * b.x, (1 - t) * a.y + t * b.y)
                eval_spline(s, p)  # every edge point evaluates
                assert locate_face(frame, p) == _locate(to_bary(frame, p))[0]
                out = Point2(p.x + 1e-6 * (p.x - c.x), p.y + 1e-6 * (p.y - c.y))
                assert locate_face(frame, out) is None
                with pytest.raises(OutsideDomain):
                    eval_spline(s, out)


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


def s3_compose(sigma: tuple, tau: tuple) -> tuple:
    """Composition sigma after tau on corner indices."""
    return tuple(sigma[tau[i] - 1] for i in range(3))


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


def test_face_matrices_are_the_face_barycentrics_of_the_corners():
    """Column c of a face's integer matrix is the face barycentrics of macro
    corner c, by bary_coords on the reference frame's face corners, and the
    float copy holds the same numbers."""
    from ps12splines.geometry import FACE_MATRICES, FLOAT_FACE_MATRICES, reference_frame
    ref = reference_frame()
    for fi, (m, fm) in enumerate(zip(FACE_MATRICES, FLOAT_FACE_MATRICES), start=1):
        cols = [bary_coords(ref.face_corners(fi), c) for c in ref.corners]
        assert m == tuple(zip(*cols)) == fm
        assert all(type(x) is int for row in m for x in row)
        assert all(type(x) is float for row in fm for x in row)


def test_face_bary_exact_is_the_fraction_matrix_product():
    """Exact points and directional triples give integers over one
    denominator equal to the products with the integer matrices."""
    import random
    from ps12splines.geometry import FACE_MATRICES, face_bary
    rng = random.Random(20)
    for fi, m in enumerate(FACE_MATRICES, start=1):
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
    are those of the products with the integer matrices, over D = 1."""
    import random
    from ps12splines.geometry import FACE_MATRICES, face_bary
    rng = random.Random(21)
    for fi, m in enumerate(FACE_MATRICES, start=1):
        for _ in range(50):
            beta = tuple(rng.uniform(-1, 2) for _ in range(3))
            want = tuple(m[r][0] * beta[0] + m[r][1] * beta[1] + m[r][2] * beta[2]
                         for r in range(3))
            den, got = face_bary(fi, beta)
            assert den == 1 and [g.hex() for g in got] == [w.hex() for w in want]


def test_to_bary_equals_bary_coords_bit_for_bit():
    """to_bary reads the frame's stored doubled area; its coordinates are
    those of bary_coords on the corners, to the bit on float frames."""
    rng = random.Random(68)
    for exact in (False, True):
        num = (lambda x: F(x).limit_denominator(60)) if exact else float
        for _ in range(20):
            # corners jittered about a fixed triangle, so never collinear
            frame = make_frame(*[(num(x + rng.uniform(-0.3, 0.3)), num(y + rng.uniform(-0.3, 0.3)))
                                 for x, y in ((0, 0), (3, 0.5), (1, 2.5))])
            for _ in range(10):
                p = Point2(num(rng.uniform(-1, 4)), num(rng.uniform(-1, 3)))
                got, want = to_bary(frame, p), bary_coords(frame.corners, p)
                assert list(map(repr, got)) == list(map(repr, want)), (frame.corners, p)


#: The split's lines, each by its two end vertices: the macro edges, where
#: the triangle ends, and the interior lines, where faces meet (the ties).
_SPLIT_LINES = tuple((e[0], e[-1]) for e in EDGES.values()) + tuple(
    (min(line, key=lambda v: VERTEX_BARY[v - 1]), max(line, key=lambda v: VERTEX_BARY[v - 1]))
    for line in INTERIOR_LINES)


@st.composite
def _exact_barys(draw):
    """A split vertex, a point of a macro edge or an interior line, or a
    random rational point, inside the triangle or not."""
    kind = draw(st.sampled_from(("vertex", "line", "random")))
    if kind == "vertex":
        return draw(st.sampled_from(VERTEX_BARY))
    if kind == "line":
        i, j = draw(st.sampled_from(_SPLIT_LINES))
        t = draw(st.fractions(0, 1, max_denominator=60))
        return tuple((1 - t) * a + t * b for a, b in zip(VERTEX_BARY[i - 1], VERTEX_BARY[j - 1]))
    b1, b2 = (draw(st.fractions(F(-1, 4), F(5, 4), max_denominator=97)) for _ in range(2))
    return b1, b2, 1 - b1 - b2


@settings(max_examples=200, deadline=None)
@given(corners=st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=3),
       beta=_exact_barys())
def test_integer_locate_picks_the_face_of_the_fraction_barycentrics(corners, beta):
    """On a frame and on its mirror image, which has the other orientation
    (a negative integer doubled area), an exact point's integer
    barycentrics n over d > 0 are its Fraction barycentrics; locate_face_bary
    on them picks the face (or None) that it picks on the Fractions, and
    face_bary on them gives the face barycentrics of the Fractions."""
    v = [Point2(*c) for c in corners]
    assume(signed_area2(*v) != 0)
    frames = [make_frame(*v), make_frame(*(Point2(-x, y) for x, y in v))]
    assert sorted(f._int_corners[2] < 0 for f in frames) == [False, True]
    for frame in frames:
        d, n = _bary(frame, from_bary(frame, beta))
        assert d > 0 and all(type(x) is int for x in n) and tuple(F(x, d) for x in n) == beta
        fi = locate_face_bary(*n, d)
        assert fi == locate_face_bary(*beta)
        if fi is not None:
            den, g = face_bary(fi, n, d)
            fden, fg = face_bary(fi, beta)
            assert [F(x, den) for x in g] == [F(x, fden) for x in fg]
