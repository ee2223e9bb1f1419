import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_points
from ps12splines.errors import (
    DomainError,
    InvalidDirection,
    InvalidWeights,
    OutsideDomain,
    TooFewKnots,
)
from ps12splines.geometry import (
    FACES,
    INTERIOR_LINES,
    Point2,
    S3_ELEMENTS,
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
    _eval_at_bary,
    _face_ordinates,
    _independent_triple,
    _independent_triple_high,
    _vertex_bary,
    active_indices,
    hull_area,
    support_faces,
    bernstein_row,
    derivative,
    derivative_expansion,
    eval_simplex,
    insert_knot,
    integral,
    knots,
    line_has_crease,
    per_face_bernstein,
    restrict_to_edge,
    smoothness_order,
)


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
            assert _eval_at_bary(K, beta) == _eval_at_bary(K, beta, pick=_independent_triple_high)


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


def test_derivative_expansion_ten_vector_higher_order(ref):
    """An explicit 10-vector direction expands like its corner triple, at
    every order (the first step uses the 10-vector itself)."""
    K = knots("141110")
    ten = (F(1), F(-1)) + (F(0),) * 8
    triple = (F(1), F(-1), F(0))
    for order in (1, 2, 3):
        from_ten = derivative_expansion(K, ten, order)
        from_triple = derivative_expansion(K, triple, order)
        for p in rational_points(5, seed=order):
            assert sum(c * eval_simplex(ref, m, p) for c, m in from_ten) == \
                sum(c * eval_simplex(ref, m, p) for c, m in from_triple)
    # a 10-vector over non-corner knots: v4 - v2 is (1/2, -1/2, 0) at the corners
    ten = (F(0), F(-1), F(0), F(1)) + (F(0),) * 6
    triple = (F(1, 2), F(-1, 2), F(0))
    from_ten = derivative_expansion(K, ten, 2)
    from_triple = derivative_expansion(K, triple, 2)
    for p in rational_points(5, seed=9):
        assert sum(c * eval_simplex(ref, m, p) for c, m in from_ten) == \
            sum(c * eval_simplex(ref, m, p) for c, m in from_triple)


def test_derivative_validation(ref):
    with pytest.raises(InvalidDirection):
        derivative_expansion(knots("141110"), (F(1), F(0), F(0)), 1)
    bad10 = [F(0)] * 10
    bad10[5] = F(1)   # v6 inactive for 141110
    bad10[0] = F(-1)
    with pytest.raises(InvalidDirection):
        derivative_expansion(knots("141110"), bad10, 1)


def test_insert_knot_midpoint_split(ref):
    ins = insert_knot(knots("141110"), 4)
    got = sorted((c, "".join(map(str, m[:6]))) for c, m in ins)
    assert got == [(F(1, 2), "041210"), (F(1, 2), "131210")]
    for p in rational_points(4, seed=6):
        lhs = eval_simplex(ref, knots("141110"), p)
        rhs = sum(c * eval_simplex(ref, m, p) for c, m in ins)
        assert lhs == rhs


def test_insert_existing_knot_identity(ref):
    one = [F(0)] * 10
    one[1] = F(1)  # v2 has positive multiplicity in 141110
    out = insert_knot(knots("141110"), 2, weights=one)
    assert out == [(F(1), knots("141110"))]
    with pytest.raises(InvalidWeights):
        insert_knot(knots("141110"), 2, weights=[F(1, 2)] + [F(0)] * 9)


def test_insert_knot_pointwise_random(ref):
    rng = random.Random(8)
    for lab in ("220211", "121211"):
        terms = insert_knot(knots(lab), 10)
        for p in rational_points(5, seed=9):
            lhs = eval_simplex(ref, knots(lab), p)
            assert lhs == sum(c * eval_simplex(ref, m, p) for c, m in terms)


def test_restriction_reference_rows(ref):
    r = restrict_to_edge(ref, knots("600101"), "e3")
    assert [(c, str(b)) for c, b in r.terms] == [(F(4), "B1^5")]
    assert restrict_to_edge(ref, knots("220211"), "e3").is_zero
    r = restrict_to_edge(ref, knots("410201"), (1, 2))
    assert [(c, str(b)) for c, b in r.terms] == [(F(2), "B3^5")]


def test_restriction_agrees_with_eval_101_params(ref):
    for lab, edge in (("600101", "e3"), ("500201", "e3"), ("320201", "e3"),
                      ("060110", "e3"), ("005012", "e2")):
        K = knots(lab)
        r = restrict_to_edge(ref, K, edge)
        i, _, k = {"e3": (1, 4, 2), "e1": (2, 5, 3), "e2": (3, 6, 1)}[edge]
        a, b = ref.vertex(i), ref.vertex(k)
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
        ff = FaceForms(ref, 5, per_face_bernstein(ref, knots(lab)))
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
    ff = FaceForms(ref, 5, per_face_bernstein(ref, K))
    assert ff.value_at_bary(to_bary(ref, p), (u,) * order) == derivative(ref, K, d, order)(p)


def _fraction_face_ordinates(m, memo):
    """The per-face recursion run over Fractions: the reference for the
    fraction-free tables (12 ordinate tuples, None where Q[m] is zero)."""
    if m in memo:
        return memo[m]
    act = active_indices(m)
    tri = _independent_triple(act) if len(act) >= 3 else None
    if tri is None:
        out = (None,) * 12
    elif sum(m) == 3:
        base = (F(1, 2) / hull_area(act),)
        out = tuple(base if fi in support_faces(act) else None for fi in range(1, 13))
    else:
        deg = sum(m) - 3
        den, vb = _vertex_bary(tri)
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
                lform = tuple(F(vb[v - 1][j], den) for v in corners)
                for c, step in zip(child[fi], _degree_step(deg)):
                    for l, (i, f) in zip(lform, step):
                        acc[i] += l * F(f, deg) * c
            faces.append(None if acc is None else tuple(acc))
        out = tuple(faces)
    memo[m] = out
    return out


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
    ff = FaceForms(ref, 5, per_face_bernstein(ref, knots("600101")))
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
