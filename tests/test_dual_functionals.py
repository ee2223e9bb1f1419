import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rational_points
from ps12splines.dual_functionals import (
    DIRECTIONS,
    FUNCTIONALS,
    apply,
    bary_direction,
    build_lambda,
    collocation,
    dim_global,
    dim_split_space,
    lambda_vector,
)
from ps12splines.errors import DomainError
from ps12splines.geometry import (EDGES, S3_ELEMENTS, VERTEX_BARY, Point2, direction_coords,
                                  make_frame, s3_apply_multiset, signed_area2, to_bary)
from ps12splines.marsden_catalog import catalog
from ps12splines.simplex_spline import FaceForms, knots, per_face_bernstein
from ps12splines.spline_fn import Spline, face_forms

# dimension table for degrees 0..9, smoothness -1..d
DIM_TABLE = {
    0: [12, 1],
    1: [36, 10, 3],
    2: [72, 31, 12, 6],
    3: [120, 64, 30, 16, 10],
    4: [180, 109, 60, 34, 21, 15],
    5: [252, 166, 102, 61, 39, 27, 21],
    6: [336, 235, 156, 100, 66, 46, 34, 28],
    7: [432, 316, 222, 151, 102, 73, 54, 42, 36],
    8: [540, 409, 300, 214, 150, 109, 81, 63, 51, 45],
    9: [660, 514, 390, 289, 210, 154, 117, 91, 73, 61, 55],
}


def test_build_lambda_counts_and_sites(ref):
    lams = build_lambda(ref)
    assert len(lams) == 39
    jets = [l for l in lams if l.site[0] == "v"]
    assert len(jets) == 30 and len(jets) // 3 == 10
    mids = [l for l in lams if l.site[-1] == "m"]
    assert [l.point for l in mids] == [ref.vertex(4), ref.vertex(5), ref.vertex(6)]
    q1_e3 = next(l for l in lams if l.site == ("e", "e3", "q1"))
    assert q1_e3.point == (F(1, 4), F(0)) and q1_e3.order == 2


def test_table_points_and_directions_are_split_vertices():
    """Every functional sits at a split vertex or a macro-edge quarterpoint,
    and every direction runs between split vertices: from a corner to the
    next and the previous corner, or from an edge midpoint to the opposite
    corner."""
    assert len(DIRECTIONS) == 9
    for c in (1, 2, 3):
        assert DIRECTIONS["x", c] == (VERTEX_BARY[c % 3], VERTEX_BARY[c - 1])
        assert DIRECTIONS["y", c] == (VERTEX_BARY[(c + 1) % 3], VERTEX_BARY[c - 1])
    for name, (a, m, b) in EDGES.items():
        head, tail = DIRECTIONS["u", name]
        assert tail == VERTEX_BARY[m - 1] and head[a - 1] == head[b - 1] == 0
    for f in FUNCTIONALS:
        if f.site[0] == "v":
            assert f.point == VERTEX_BARY[f.site[1] - 1]
        else:
            assert f.point in VERTEX_BARY or sorted(f.point) == [0, F(1, 4), F(3, 4)]
        assert all(sum(bary_direction(n)) == 0 for n in f.directions)


_coordinate = st.fractions(-9, 9, max_denominator=12)


@settings(max_examples=6, deadline=None)
@given(corners=st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=3))
def test_cartesian_view_maps_back_to_the_frame_free_table(corners):
    """On a rational frame, each functional of build_lambda maps back
    exactly to its table entry (point by to_bary, directions by
    direction_coords), and applied to the face forms of a basis-c simplex
    spline on that frame it gives the frame-free lambda_vector entry."""
    corners = [Point2(*c) for c in corners]
    assume(signed_area2(*corners) != 0)
    frame = make_frame(*corners)
    lams = build_lambda(frame)
    assert [lam.site for lam in lams] == [f.site for f in FUNCTIONALS]
    for lam, f in zip(lams, FUNCTIONALS):
        assert to_bary(frame, lam.point) == f.point
        assert [direction_coords(frame, u) for u in lam.directions] == \
            [bary_direction(n) for n in f.directions]
    for K in catalog("c").multisets:
        forms = FaceForms(frame, per_face_bernstein(frame, K))
        assert tuple(apply(lam, forms) for lam in lams) == lambda_vector(K)


def test_apply_partition_of_unity_and_constants(ref):
    one = face_forms(Spline(ref, "c", (F(1),) * 39))
    for lam in build_lambda(ref):
        expected = F(1) if lam.order == 0 else F(0)
        assert apply(lam, one) == expected


def test_apply_linearity(ref):
    rng = random.Random(12)
    ca = [F(rng.randint(-9, 9), 7) for _ in range(39)]
    cb = [F(rng.randint(-9, 9), 5) for _ in range(39)]
    a, b = F(3, 2), F(-2, 7)
    fa = face_forms(Spline(ref, "c", tuple(ca)))
    fb = face_forms(Spline(ref, "c", tuple(cb)))
    fab = face_forms(Spline(ref, "c", tuple(a * x + b * y for x, y in zip(ca, cb))))
    for lam in build_lambda(ref)[::7]:
        assert apply(lam, fab) == a * apply(lam, fa) + b * apply(lam, fb)


def test_apply_on_a_float_frame_matches_the_exact_layer():
    """All 39 functionals apply to a float spline on a float frame whose
    macro-edge functional points come out of to_bary with roundoff such as
    -8.6e-17 (snapped onto the edge, as for every float point), and match
    the exact layer on the same frame and coefficients as binary rationals
    within the float layer's stated bound, 1e-9 * max(1, max |c_i|)."""
    corners = ((0.3, -0.1), (2.7, 0.2), (0.1, 3.1))
    rng = random.Random(1)
    coeffs = [rng.uniform(-5, 5) for _ in range(39)]
    fs = Spline(make_frame(*corners), "c", tuple(coeffs))
    es = Spline(make_frame(*[(F(x), F(y)) for x, y in corners]), "c", tuple(map(F, coeffs)))
    lams = build_lambda(fs.frame)
    assert min(min(to_bary(fs.frame, lam.point)) for lam in lams) < 0
    bound = 1e-9 * max(1.0, max(map(abs, coeffs)))
    for lf, le in zip(lams, build_lambda(es.frame)):
        assert abs(apply(lf, face_forms(fs)) - float(apply(le, face_forms(es)))) <= bound, lf.site


def test_collocation_full_rank_and_duplicates(ref):
    spec = catalog("c")
    cm = collocation(ref, spec.multisets)
    assert cm.rank == len(cm.entries) == 39
    dup = list(spec.multisets)
    dup[1] = dup[0]
    cm2 = collocation(ref, dup)
    assert cm2.rank <= 38


def test_collocation_rank_invariant_under_s3(ref):
    spec = catalog("c")
    for sigma in S3_ELEMENTS[1:3]:
        relabeled = [s3_apply_multiset(sigma, K) for K in spec.multisets]
        assert collocation(ref, relabeled).rank == 39


def test_dim_table_reproduced():
    for d, row in DIM_TABLE.items():
        for idx, expected in enumerate(row):
            r = idx - 1
            assert dim_split_space(r, d) == expected, (r, d)
    assert dim_split_space(3, 5) == 39
    assert dim_split_space(2, 4) == 34
    assert dim_split_space(-1, 0) == 12


def test_dim_domain_errors():
    with pytest.raises(DomainError):
        dim_split_space(-2, 3)
    with pytest.raises(DomainError):
        dim_split_space(4, 3)
    with pytest.raises(DomainError):
        dim_global(2, 3)


def test_dim_global_values():
    assert dim_global(3, 3) == 39
    assert dim_global(7, 12) == 106  # hexagon fan: 6 spokes + 6 ring edges
    assert dim_global(4, 5) == 55


def test_two_triangle_dimension_cross_check():
    """dim for two triangles sharing an edge equals 78 minus the number of
    independent continuity constraints (the order-0..2 relations plus one
    order-3 vertex condition at each shared corner)."""
    from ps12splines.assembly import _smoothness_symbolic, N_BLOCKS
    from ps12splines.linalg import rank
    from tripoly import TriPoly
    rels, _ = _smoothness_symbolic()
    beta = (F(1, 3), F(1, 4), F(5, 12))     # generic opposite vertex
    rows = []
    for i in range(N_BLOCKS[2]):          # orders 0..2 across the edge
        row = [F(0)] * 78
        row[39 + i] = F(1)
        for src, poly in rels[i].items():
            row[src] -= TriPoly(poly).evaluate(*beta)
        rows.append(row)
    # third-order agreement at the two shared corners: the order-3 jet of the
    # neighbour at v1/v2 is determined by continuity of D^3 in the direction
    # of the opposite vertex; equivalently appending the two quarterpoint
    # order-3 relations restricted to the corner values.  Use the full
    # order-3 relations for ctilde_22 and ctilde_25 (supported at the two
    # corners of the shared edge).
    for i in (N_BLOCKS[2], N_BLOCKS[3] - 1):
        row = [F(0)] * 78
        row[39 + i] = F(1)
        for src, poly in rels[i].items():
            row[src] -= TriPoly(poly).evaluate(*beta)
        rows.append(row)
    assert rank(rows) == 23
    assert 78 - rank(rows) == dim_global(4, 5)


def test_lambda_vector_examples():
    # point evaluation of the unit at the first corner through the table
    row = lambda_vector(knots("600101"))
    assert row[0] == 4  # Q[600101](v1) = 4
