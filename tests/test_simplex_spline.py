import random
from fractions import Fraction as F
from itertools import combinations, product
from functools import lru_cache, reduce
from math import gcd
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rational_points
from knot_oracles import derivative_expansion, hull_area, insert_knot, restrict_to_edge
from ps12splines.bspline1d import UnivariateBSplineRef
from ps12splines.errors import (
    DomainError,
    InvalidDirection,
    OutsideDomain,
    TooFewKnots,
)
from ps12splines.geometry import (
    FACES,
    INTERIOR_LINES,
    PS12Frame,
    Point2,
    S3_ELEMENTS,
    VERTEX_BARY,
    from_bary,
    locate_face,
    make_frame,
    reference_frame,
    s3_apply_bary,
    s3_apply_multiset,
    to_bary,
)
from ps12splines.marsden_catalog import catalog
from ps12splines.simplex_spline import (
    FaceForms,
    _degree_step,
    _face_ordinates,
    _independent_triple,
    _row_terms,
    bernstein_row,
    derivative,
    eval_simplex,
    integral,
    knot_label,
    knots,
    per_face_bernstein,
    quintic_form,
    smoothness_order,
)


# ---------------------------------------------------------------------------
# Fraction oracle: the defining recursion, pointwise and face by face, on
# geometry helpers of its own (none of the library's)
# ---------------------------------------------------------------------------

#: The ten split vertices of the reference frame [(0,0), (1,0), (0,1)].
_H, _Q, _T = F(1, 2), F(1, 4), F(1, 3)
REF_POINTS = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (_H, F(0)), (_H, _H), (F(0), _H),
              (_Q, _Q), (_H, _Q), (_Q, _H), (_T, _T))


def _area2(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _bary(tri, x):
    """Barycentric coordinates of the point x on the triangle of the vertex
    indices tri."""
    a, b, c = (REF_POINTS[i - 1] for i in tri)
    d = _area2(a, b, c)
    return _area2(x, b, c) / d, _area2(a, x, c) / d, _area2(a, b, x) / d


def _triple(act, high=False):
    """The lowest-index affinely independent triple of active vertices (the
    highest-index one with high), or None."""
    for tri in combinations(act[::-1] if high else act, 3):
        if _area2(*(REF_POINTS[i - 1] for i in tri)):
            return tri[::-1] if high else tri
    return None


def _hull(act):
    """Convex hull of the knots, counterclockwise, by gift wrapping."""
    pts = sorted({REF_POINTS[i - 1] for i in act})
    hull = [pts[0]]
    while len(pts) > 1:
        cur = hull[-1]
        nxt = pts[1] if cur == pts[0] else pts[0]
        for p in pts:
            turn = _area2(cur, nxt, p)
            if p != cur and (turn < 0 or turn == 0 and
                             abs(p[0] - cur[0]) + abs(p[1] - cur[1]) >
                             abs(nxt[0] - cur[0]) + abs(nxt[1] - cur[1])):
                nxt = p
        if nxt == hull[0]:
            break
        hull.append(nxt)
    return hull


@lru_cache(maxsize=None)
def _hull_area(act):
    """Shoelace area of the knots' convex hull."""
    h = _hull(act)
    return abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(h, h[1:] + h[:1]))) / 2


@lru_cache(maxsize=None)
def _support(act):
    """Faces whose centroid lies in the closed convex hull of the knots."""
    h = _hull(act)
    if len(h) < 3:
        return ()
    out = []
    for fi, corners in enumerate(FACES, 1):
        cen = tuple(sum(REF_POINTS[v - 1][k] for v in corners) / 3 for k in (0, 1))
        if all(_area2(a, b, cen) >= 0 for a, b in zip(h, h[1:] + h[:1])):
            out.append(fi)
    return tuple(out)


def _face_of(x):
    """The half-open convention: the lowest-index face whose closed
    triangle contains x, D6 at v6, None outside the macrotriangle."""
    if x == REF_POINTS[5]:
        return 6
    for fi, corners in enumerate(FACES, 1):
        if min(_bary(corners, x)) >= 0:
            return fi
    return None


def _on_split_line(i, j):
    """The segment [vi, vj] lies on the line of a face edge."""
    a, b = REF_POINTS[i - 1], REF_POINTS[j - 1]
    return any(_area2(a, b, REF_POINTS[u - 1]) == 0 == _area2(a, b, REF_POINTS[v - 1])
               for f in FACES for u, v in combinations(f, 2))


def _oracle_eval(K, beta, high=False):
    """Q[K] at reference macro-barycentrics beta (_oracle)."""
    return _oracle(beta, high)(tuple(K))


def _oracle(beta, high=False):
    """m -> Q[m] at reference macro-barycentrics beta, memoized, by the
    pointwise recursion Q[m](x) = sum_j b_j Q[m - e_j](x) over the
    lowest-index (or the highest-index) independent triple, with the
    |m| = 3 base case 1 / (2 area) on the support faces, read at the face
    of x."""
    x = tuple(sum(b * p[k] for b, p in zip(beta, REF_POINTS)) for k in (0, 1))
    face = _face_of(x)
    memo, bary = {}, lru_cache(maxsize=None)(lambda tri: _bary(tri, x))

    def rec(m):
        if m not in memo:
            act = tuple(i + 1 for i in range(10) if m[i])
            tri = _triple(act, high)
            if tri is None:
                memo[m] = F(0)
            elif sum(m) == 3:
                memo[m] = 1 / (2 * _hull_area(act)) if face in _support(act) else F(0)
            else:
                memo[m] = sum((g * rec(m[:i - 1] + (m[i - 1] - 1,) + m[i:])
                               for g, i in zip(bary(tri), tri) if g), F(0))
        return memo[m]

    return rec


def _fraction_face_ordinates(m, memo):
    """The per-face recursion run over Fractions: the reference for the
    fraction-free tables (12 ordinate tuples, None where Q[m] is zero)."""
    if m in memo:
        return memo[m]
    act = tuple(i + 1 for i in range(10) if m[i])
    tri = _triple(act)
    if tri is None:
        out = (None,) * 12
    elif sum(m) == 3:
        base = (1 / (2 * _hull_area(act)),)
        out = tuple(base if fi in _support(act) else None for fi in range(1, 13))
    else:
        deg = sum(m) - 3
        vb = [_bary(tri, p) for p in REF_POINTS]
        children = [_fraction_face_ordinates(m[:i - 1] + (m[i - 1] - 1,) + m[i:], memo)
                    for i in tri]
        faces = []
        for fi, corners in enumerate(FACES):
            acc = None
            for j, child in enumerate(children):
                if child[fi] is None:
                    continue
                if acc is None:
                    acc = [F(0)] * ((deg + 1) * (deg + 2) // 2)
                lform = tuple(vb[v - 1][j] for v in corners)
                for c, step in zip(child[fi], _degree_step(deg)):
                    for l, (i, f) in zip(lform, step):
                        acc[i] += l * F(f, deg) * c
            faces.append(None if acc is None else tuple(acc))
        out = tuple(faces)
    memo[m] = out
    return out


def line_has_crease(K, interior_line):
    """True when at least two distinct knots of K lie on the line's hull."""
    return sum(1 for i in INTERIOR_LINES[interior_line] if K[i - 1] > 0) >= 2


def test_oracle_geometry_on_the_reference_frame(ref):
    assert REF_POINTS == tuple(tuple(v) for v in ref.v)
    assert _hull_area((1, 2, 3)) == F(1, 2) and _hull_area((1, 4, 2)) == 0
    assert _support((1, 2, 3)) == tuple(range(1, 13)) and _support((1, 4, 7)) == (1,)
    for beta in VERTEX_BARY:
        assert _face_of(from_bary(ref, beta)) == locate_face(ref, from_bary(ref, beta))


def test_eval_indicator_and_bernstein_cases(ref):
    assert eval_simplex(ref, knots("111000"), Point2(F(1, 5), F(1, 7))) == 1
    assert eval_simplex(ref, knots("111000"), Point2(F(3), F(3))) == 0
    assert eval_simplex(ref, knots("222000"), Point2(F(1, 3), F(1, 3))) == F(2, 9)


def test_eval_rejects_too_few_knots(ref):
    with pytest.raises(TooFewKnots):
        eval_simplex(ref, knots("110000"), Point2(F(1, 3), F(1, 3)))


def test_partition_of_unity_basis_c(ref):
    spec = catalog("c")
    for p in rational_points(4, seed=1):
        total = sum(el.weight * eval_simplex(ref, el.multiset, p) for el in spec.elements)
        assert total == 1


def test_representation_independence(ref):
    # evaluation is unchanged under a different barycentric representation
    # (knot sets with at least four distinct active points)
    for lab in ("221111", "121211", "141110", "220211"):
        K = knots(lab)
        for p in rational_points(4, seed=2):
            beta = to_bary(ref, p)
            assert eval_simplex(ref, K, p) == _oracle_eval(K, beta, high=True)


_FRAMES = (reference_frame(),
           make_frame(Point2(F(3), F(-1)), Point2(F(7), F(1)), Point2(F(2), F(6))))


def _face_or_outside_point(fi, weights, outside):
    """Macro-barycentrics of the combination of face fi's corners with the
    given nonnegative weights (zeros give edge points and split vertices),
    moved across a macro edge when outside."""
    tot = sum(weights)
    beta = [sum(F(w, tot) * VERTEX_BARY[v - 1][r] for w, v in zip(weights, FACES[fi - 1]))
            for r in range(3)]
    if outside:
        k = fi % 3
        beta = [b + (F(-8, 7) if r == k else F(4, 7)) for r, b in enumerate(beta)]
    return tuple(beta)


@settings(max_examples=120, deadline=None)
@given(idx=st.lists(st.integers(0, 9), min_size=3, max_size=9),
       frame=st.sampled_from(_FRAMES), fi=st.integers(1, 12),
       weights=st.tuples(*[st.integers(0, 12)] * 3).filter(lambda w: sum(w) > 0),
       outside=st.booleans(), order=st.integers(0, 2),
       direction=st.tuples(*[st.fractions(-3, 3, max_denominator=7)] * 2))
def test_eval_simplex_matches_recursion_oracle(idx, frame, fi, weights, outside, order,
                                               direction):
    """Any knot vector of 3 to 9 knots on the ten vertices, at rational
    points inside a face, on its edges, at split vertices and outside the
    macrotriangle: eval_simplex is the pointwise recursion, and derivative()
    the recursion summed over the terms of the knot-multiset expansion.  A
    float point gives the float of the recursion at the binary rationals of
    its barycentrics."""
    K = tuple(idx.count(i) for i in range(10))
    beta = _face_or_outside_point(fi, weights, outside)
    p = from_bary(frame, beta)
    want = _oracle_eval(K, beta)
    assert (min(beta) < 0) == outside and (want == 0 or not outside)
    try:
        got = eval_simplex(frame, K, p)
    except DomainError:
        # the recursion met a knot triangle with a side across a face: two
        # of the knots span a segment on no line of the split
        act = [i + 1 for i in range(10) if K[i]]
        assert not outside and not all(_on_split_line(i, j) for i, j in combinations(act, 2))
        return
    assert got == want
    pf = Point2(float(p.x), float(p.y))
    _, b2, b3 = (F(b) for b in to_bary(frame, pf))
    got = eval_simplex(frame, K, pf)
    assert isinstance(got, float) and got.hex() == float(_oracle_eval(K, (1 - b2 - b3, b2, b3))).hex()
    if order <= len(idx) - 3:
        d = (-direction[0] - direction[1],) + direction
        want = sum((c * _oracle_eval(m, beta) for c, m in derivative_expansion(K, d, order)), F(0))
        assert derivative(frame, K, d, order)(p) == want


def test_derivative_of_every_admissible_spline_on_face_edges_matches_the_expansion():
    """The 99 admissible splines at orders 0-5 on both frames, along seeded
    rational directions, at seeded exact points on the edges of the faces
    and at the midpoints of those edges: derivative() is the knot-multiset
    expansion summed with the pointwise recursion, on the face the
    half-open convention picks (orders 4 and 5 jump across some of those
    edges, so there the choice shows).  At the point rounded to floats it
    is the float of that sum at the binary rationals of its barycentrics."""
    from ps12splines.basis_search import enumerate_admissible
    rng = random.Random(32)
    edges = sorted({e for f in FACES for e in combinations(sorted(f), 2)})
    assert len(edges) == 21

    def on_edge(e, t):
        return tuple((1 - t) * a + t * b for a, b in zip(*(VERTEX_BARY[v - 1] for v in e)))

    points = [on_edge(e, F(1, 2)) for e in edges] + \
        [on_edge(rng.choice(edges), F(rng.randint(1, 12), 13)) for _ in range(21)]
    oracles = [_oracle(beta) for beta in points]
    quintics = sorted(K for cls in enumerate_admissible() for K in cls.members)
    assert len(quintics) == 99
    for K in quintics:
        for order in range(6):
            x, y = (F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2))
            d = (x, y, -x - y)
            terms = derivative_expansion(K, d, order)
            for frame in _FRAMES:
                fn = derivative(frame, K, d, order)
                for n in rng.sample(range(21), 3) + rng.sample(range(21, 42), 3):
                    p = from_bary(frame, points[n])
                    assert fn(p) == sum((c * oracles[n](m) for c, m in terms), F(0)), (K, n)
                pf = Point2(float(p.x), float(p.y))
                _, b2, b3 = (F(b) for b in to_bary(frame, pf))
                rec = _oracle((1 - b2 - b3, b2, b3))
                want = float(sum((c * rec(m) for c, m in terms), F(0)))
                assert fn(pf).hex() == want.hex(), (K, order)


def test_knot_label_is_compact_only_without_interior_knots():
    assert knot_label(knots("600101")) == "600101"
    assert knot_label(knots("2001011100")) == "2001011100"


def test_knot_triangle_across_a_face_raises(ref):
    """Knots v1, v3, v8: the side v1-v8 crosses D1, so no Bernstein form on
    D1 is the knot triangle's indicator (2 = area(T) / area([K]) inside, at
    (0.8, 0.11, 0.09), and 0 outside).  Evaluating raises instead of
    returning 0 there, as the centroid test alone did."""
    assert not _on_split_line(1, 8)
    for beta in ((F(4, 5), F(11, 100), F(9, 100)), (F(4, 5), F(1, 20), F(3, 20))):
        with pytest.raises(DomainError):
            eval_simplex(ref, knots("1010000100"), from_bary(ref, beta))


def test_s3_equivariance(ref):
    rng = random.Random(5)
    labs = ["600101", "500201", "220211", "141110", "121211"]
    pts = rational_points(10, seed=3)
    for lab in labs:
        K = knots(lab)
        for sigma in S3_ELEMENTS:
            sK = s3_apply_multiset(sigma, K)
            for p in pts[:4]:
                beta = to_bary(ref, p)
                q = from_bary(ref, s3_apply_bary(sigma, beta))
                assert eval_simplex(ref, sK, q) == eval_simplex(ref, K, p)


def test_affine_invariance():
    src = reference_frame()
    dst = make_frame(Point2(F(3), F(-1)), Point2(F(7), F(1)), Point2(F(2), F(6)))
    K = knots("220211")
    for p in rational_points(5, seed=4):
        beta = to_bary(src, p)
        assert eval_simplex(dst, K, from_bary(dst, beta)) == eval_simplex(src, K, p)


def test_derivative_finite_difference(ref):
    K = knots("220211")
    u = (F(1), F(-1, 2), F(-1, 2))
    d = derivative(ref, K, u, 1)
    assert derivative(ref, K, u, 0)(Point2(F(1, 3), F(1, 5))) == \
        eval_simplex(ref, K, Point2(F(1, 3), F(1, 5)))
    p = Point2(F(31, 100), F(11, 50))
    # cartesian direction u1*v1 + u2*v2 + u3*v3 on the reference frame
    vx, vy = F(-1, 2), F(-1, 2)
    exact = float(d(p))
    errs = []
    for h in (F(1, 1000), F(1, 2000)):
        plus = eval_simplex(ref, K, Point2(p.x + h * vx, p.y + h * vy))
        minus = eval_simplex(ref, K, Point2(p.x - h * vx, p.y - h * vy))
        errs.append(abs(float((plus - minus) / (2 * h)) - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5 or errs[0] < 1e-12


def test_derivative_order_k_equals_iterated(ref):
    K = knots("141110")
    u = (F(2, 3), F(-1, 3), F(-1, 3))
    two_step = {m: c for c, m in derivative_expansion(K, u, 2)}
    acc = {}
    for c1, m1 in derivative_expansion(K, u, 1):
        for c2, m2 in derivative_expansion(m1, u, 1):
            acc[m2] = acc.get(m2, F(0)) + c1 * c2
    acc = {m: c for m, c in acc.items() if c}
    assert acc == two_step


def test_derivative_validation(ref):
    with pytest.raises(InvalidDirection):
        derivative(ref, knots("141110"), (F(1), F(0), F(0)), 1)
    bad10 = [F(0)] * 10
    bad10[5] = F(1)   # a 10-vector over the knots is not a corner triple
    bad10[0] = F(-1)
    with pytest.raises(InvalidDirection):
        derivative(ref, knots("141110"), bad10, 1)


def test_insert_knot_midpoint_split(ref):
    ins = insert_knot(knots("141110"), 4)
    got = sorted((c, "".join(map(str, m[:6]))) for c, m in ins)
    assert got == [(F(1, 2), "041210"), (F(1, 2), "131210")]
    for p in rational_points(4, seed=6):
        lhs = eval_simplex(ref, knots("141110"), p)
        rhs = sum(c * eval_simplex(ref, m, p) for c, m in ins)
        assert lhs == rhs


def test_insert_knot_pointwise_random(ref):
    rng = random.Random(8)
    for lab in ("220211", "121211"):
        terms = insert_knot(knots(lab), 10)
        for p in rational_points(5, seed=9):
            lhs = eval_simplex(ref, knots(lab), p)
            assert lhs == sum(c * eval_simplex(ref, m, p) for c, m in terms)


def test_restriction_reference_rows(ref):
    r = restrict_to_edge(ref, knots("600101"), "e3")
    assert r.terms == ((F(4), UnivariateBSplineRef(5, 1)),)
    assert not restrict_to_edge(ref, knots("220211"), "e3").terms
    r = restrict_to_edge(ref, knots("410201"), (1, 2))
    assert r.terms == ((F(2), UnivariateBSplineRef(5, 3)),)


def test_restriction_agrees_with_eval_101_params(ref):
    for lab, edge in (("600101", "e3"), ("500201", "e3"), ("320201", "e3"),
                      ("060110", "e3"), ("005012", "e2")):
        K = knots(lab)
        r = restrict_to_edge(ref, K, edge)
        i, _, k = {"e3": (1, 4, 2), "e1": (2, 5, 3), "e2": (3, 6, 1)}[edge]
        a, b = ref.v[i - 1], ref.v[k - 1]
        for n in range(101):
            t = F(n, 100)
            p = Point2((1 - t) * a.x + t * b.x, (1 - t) * a.y + t * b.y)
            assert r(t) == eval_simplex(ref, K, p), (lab, t)


def test_integral_formula_and_quadrature(ref):
    assert integral(ref, knots("111000")) == F(1, 2)
    assert integral(ref, knots("600101")) == F(1, 2) / 21
    # oracle: exact per-face polynomial quadrature of the Bernstein forms
    for lab in ("600101", "220211", "121211", "141110"):
        K = knots(lab)
        table = per_face_bernstein(ref, K)
        total = F(0)
        for fi in range(1, 13):
            a, b, c = ref.face_corners(fi)
            area = abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2
            total += area * sum(table[fi - 1]) / 21
        assert total == integral(ref, K), lab


def test_integral_scales_with_frame():
    big = make_frame(Point2(F(0), F(0)), Point2(F(4), F(0)), Point2(F(0), F(4)))
    assert integral(big, knots("600101")) == F(8) / 21


@pytest.mark.parametrize("corners", [
    ((F(0), F(0)), (F(4), F(0)), (F(0), F(4))),
    ((F(1, 3), F(2)), (F(-5, 2), F(1, 7)), (F(3), F(-1))),
    ((0.3, -0.1), (2.7, 0.2), (0.1, 3.1)),
])
def test_integral_on_a_frame_built_directly(corners):
    """A PS12Frame built from its corners has the area make_frame's has."""
    direct, made = PS12Frame(tuple(Point2(*p) for p in corners)), make_frame(*corners)
    assert direct.area == made.area
    for lab in ("600101", "141110", "111000", "030500"):
        assert integral(direct, knots(lab)) == integral(made, knots(lab))


def test_collinearity_and_base_case_match_the_convex_hull():
    """Over every nonempty set of split vertices, the knots have no
    independent triple exactly when their hull has area 0; for each
    independent triple the per-face base value is area(T) / area(hull),
    or the triple is refused for a side across a face."""
    accepted = 0
    for r in range(1, 11):
        for act in combinations(range(1, 11), r):
            assert (_independent_triple(act) is None) == (hull_area(act) == 0), act
            if r != 3 or hull_area(act) == 0:
                continue
            m = tuple(int(i + 1 in act) for i in range(10))
            try:
                den, faces = _face_ordinates(m)
            except DomainError:
                continue
            accepted += 1
            assert {F(f[0], den) for f in faces if f} == {F(1, 2) / hull_area(act)}, act
    assert accepted > 0


def test_smoothness_order_values():
    assert smoothness_order(knots("600101"), (1, 4, 2)) == 8 - 7 - 2
    K = knots("111000")
    assert smoothness_order(K, INTERIOR_LINES[0]) == 3 - 1 - 2
    # every admissible quintic has order >= 3 across each crease line
    from ps12splines.basis_search import enumerate_admissible
    for cls in enumerate_admissible():
        for K in cls.members:
            for li in range(6):
                if line_has_crease(K, li):
                    assert smoothness_order(K, li) >= 3, (K, li)


def test_per_face_bernstein_examples(ref):
    table = per_face_bernstein(ref, knots("600101"))
    assert all(v == 0 for v in table[1])  # face 2 outside the support
    # oracle: recursive evaluation at interior points of every face
    rng = random.Random(10)
    for lab in ("220211", "141110"):
        ff = FaceForms(ref, per_face_bernstein(ref, knots(lab)))
        for p in rational_points(6, seed=11):
            assert ff.value_at_bary(to_bary(ref, p)) == eval_simplex(ref, knots(lab), p)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, 98), fi=st.integers(1, 12),
       weights=st.tuples(*[st.integers(1, 60)] * 3), order=st.integers(0, 3),
       direction=st.tuples(*[st.fractions(-3, 3, max_denominator=7)] * 2))
def test_per_face_tables_match_pointwise_recursion(k, fi, weights, order, direction):
    """Any admissible spline, any face, a rational point strictly inside it:
    the face table's value, and its derivatives along a rational direction
    taken through functional_row, equal the pointwise recursion."""
    from ps12splines.basis_search import enumerate_admissible
    ref = reference_frame()
    K = sorted(K for cls in enumerate_admissible() for K in cls.members)[k]
    g = tuple(F(w, sum(weights)) for w in weights)
    corners = ref.face_corners(fi)
    p = Point2(sum(gr * c.x for gr, c in zip(g, corners)),
               sum(gr * c.y for gr, c in zip(g, corners)))
    assert locate_face(ref, p) == fi
    table = per_face_bernstein(ref, K)[fi - 1]
    assert sum(o * r for o, r in zip(table, bernstein_row(g))) == eval_simplex(ref, K, p)
    # Cartesian u on the reference frame has directional coordinates d
    u = Point2(*direction)
    d = (-u.x - u.y, u.x, u.y)
    ff = FaceForms(ref, per_face_bernstein(ref, K))
    assert ff.value_at_bary(to_bary(ref, p), (u,) * order) == derivative(ref, K, d, order)(p)


def test_integer_face_tables_match_fraction_recursion():
    """The fraction-free tables of the 99 admissible splines and of all
    their sub-multisets of degree 0-4 equal the Fraction recursion, with the
    numerators and the denominator reduced by their gcd."""
    from ps12splines.basis_search import enumerate_admissible
    quintics = {K for cls in enumerate_admissible() for K in cls.members}
    subs = {m for K in quintics for m in product(*(range(k + 1) for k in K))
            if 3 <= sum(m) <= 7}
    memo = {}
    for m in sorted(quintics | subs):
        den, faces = _face_ordinates(m)
        want = _fraction_face_ordinates(m, memo)
        assert [None if f is None else [F(c, den) for c in f] for f in faces] == \
            [None if f is None else list(f) for f in want], m
        assert den > 0 and gcd(den, *(c for f in faces if f for c in f)) == 1, m
    assert len(quintics) == 99 and any(sum(m) == 3 for m in subs)


def test_per_face_bernstein_rejects_non_quintic(ref):
    with pytest.raises(DomainError):
        per_face_bernstein(ref, knots("600100"))


def test_face_forms_outside_raises(ref):
    ff = FaceForms(ref, per_face_bernstein(ref, knots("600101")))
    with pytest.raises(OutsideDomain):
        ff.value_at_bary((F(-1, 10), F(1, 2), F(3, 5)))


def test_partition_of_unity_ordinates(ref):
    # reassembled sum w_i Q_i has every face ordinate equal to one, for the
    # stored weights of every basis
    for bid in "abcdef":
        spec = catalog(bid)
        acc = [[F(0)] * 21 for _ in range(12)]
        for el in spec.elements:
            t = per_face_bernstein(ref, el.multiset)
            for fi in range(12):
                for s in range(21):
                    acc[fi][s] += el.weight * t[fi][s]
        assert all(v == 1 for row in acc for v in row), bid


# ---------------------------------------------------------------------------
# quintic_form: the one straight-line kernel of the float and exact values
# ---------------------------------------------------------------------------

def test_quintic_form_terms_follow_row_terms():
    """Ordinate k multiplies the k-th term of _row_terms(5): on a unit
    vector and the primes 7, 11, 13 (none divides a multinomial), the
    value m 7^a 11^b 13^c names (m, a, b, c)."""
    for k, (m, a, b, c) in enumerate(_row_terms(5)):
        unit = [0] * 21
        unit[k] = 1
        assert quintic_form(unit, 7, 11, 13) == m * 7 ** a * 11 ** b * 13 ** c


_BIG = st.integers(-2 ** 200, 2 ** 200)


@settings(max_examples=100, deadline=None)
@given(ords=st.lists(_BIG, min_size=21, max_size=21), g=st.tuples(_BIG, _BIG, _BIG))
def test_quintic_form_on_integers_is_the_row_times_the_ordinates(ords, g):
    assert quintic_form(ords, *g) == sum(o * r for o, r in zip(ords, bernstein_row(g)))


_FLOATS = st.floats(allow_nan=False)  # huge, subnormal, signed zeros and infinities too
# whole vectors of any floats, or of the ordinates and barycentrics evaluation meets
_ORDS = st.one_of(*(st.lists(x, min_size=21, max_size=21) for x in (_FLOATS, st.floats(-10, 10))))
_G = st.one_of(*(st.tuples(x, x, x) for x in (_FLOATS, st.floats(0, 1))))


@settings(max_examples=300, deadline=None)
@given(ords=_ORDS, g=_G)
@example(ords=[-0.0] * 21, g=(0.25, 0.25, 0.5))
@example(ords=[-0.0] * 21, g=(-0.0, 5e-324, 1.0))
@example(ords=[1.0] * 21, g=(1e300, 1e-300, 5e-324))
def test_quintic_form_on_floats_has_the_bits_of_the_row_sum(ords, g):
    """The bits of bernstein_row's products summed left to right from int 0
    (so an all -0.0 sum is +0.0), overflow and underflow included; also
    with one ordinate nonzero, where the sum has that one term's bits."""
    for o in [ords] + [[0.0] * k + [ords[k]] + [0.0] * (20 - k) for k in range(21)]:
        want = reduce(add, map(mul, o, bernstein_row(g)), 0)
        assert quintic_form(o, *g).hex() == want.hex()


@settings(max_examples=60, deadline=None)
@given(cols=st.lists(st.tuples(st.lists(_FLOATS, min_size=21, max_size=21),
                               _FLOATS, _FLOATS, _FLOATS), min_size=1, max_size=8))
def test_quintic_form_on_numpy_columns_has_the_scalar_bits(cols):
    """Run on columns, as spline_fn.eval_many runs it, each element has the
    bits of the same call on Python floats."""
    import numpy as np
    o = np.array([c[0] for c in cols]).T
    x, y, z = (np.array([c[i] for c in cols]) for i in (1, 2, 3))
    with np.errstate(all="ignore"):
        got = quintic_form(o, x, y, z).tolist()
    assert [v.hex() for v in got] == [quintic_form(*c).hex() for c in cols]
