import math
import random
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache, reduce
from math import factorial, inf, nan
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rational_points
from ps12splines import spline_fn
from ps12splines.errors import (BoundViolated, DomainError, OutsideDomain, PS12Error,
                                UnsupportedBasis)
from ps12splines.geometry import (
    EDGES,
    FACE_MATRICES,
    FACES,
    INTERIOR_LINES,
    VERTEX_BARY,
    Point2,
    _as_bary,
    from_bary,
    locate_face_bary,
    make_frame,
    to_bary,
)
from ps12splines.linalg import _integer_solve, identity, inf_norm, inverse, solve
from ps12splines.marsden_catalog import catalog
from ps12splines.rational import common_denominator
from ps12splines.simplex_spline import (
    _face_ordinates,
    bernstein_exponents,
    float_value,
    functional_row,
)
from ps12splines.spline_fn import (
    Spline,
    basis_values,
    collocation_at_domain_points,
    control_distance_bound_check,
    control_mesh,
    control_mesh_edges,
    eval_many,
    eval_spline,
    face_forms,
    lagrange_interpolate,
    scaled_basis_tables,
)

K_EXACT = F(60866923187443943219194678615331, 836197581250152380489105335680)


def test_constant_and_identity_coefficients(ref):
    ones = Spline(ref, "c", (F(1),) * 39)
    for p in rational_points(4, seed=41):
        assert eval_spline(ones, p) == 1
    spec = catalog("c")
    sx = Spline(ref, "c", tuple(from_bary(ref, el.domain_point).x for el in spec.elements))
    sy = Spline(ref, "c", tuple(from_bary(ref, el.domain_point).y for el in spec.elements))
    for p in rational_points(4, seed=42):
        assert eval_spline(sx, p) == p.x
        assert eval_spline(sy, p) == p.y


def test_exact_spline_scales_its_coefficients_once(ref, monkeypatch):
    """Exact eval_spline scales the coefficients on the first call only; the
    cached scaling is no field, so equality, hash and repr are unchanged."""
    from ps12splines import spline_fn
    real, calls = spline_fn.common_denominator, []
    monkeypatch.setattr(spline_fn, "common_denominator",
                        lambda values: calls.append(len(values)) or real(values))
    coeffs = tuple(F(k - 19, 7) for k in range(39))
    s, t = Spline(ref, "c", coeffs), Spline(ref, "c", coeffs)
    for p in rational_points(3, seed=5):
        assert eval_spline(s, p) == eval_spline(Spline(ref, "c", coeffs), p)
    assert calls == [39] * 4 and s.exact
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


def test_eval_outside_raises(ref):
    ones = Spline(ref, "c", (F(1),) * 39)
    with pytest.raises(OutsideDomain):
        eval_spline(ones, Point2(F(2), F(2)))


def test_float_eval_spline_and_eval_many_agree_bitwise():
    """Float eval_spline and the batch eval_many do the same operations: equal bits
    on a lattice whose points lie on face edges and macro edges (dyadic, so
    the unit frame gives exactly those barycentrics), and both reject a point
    just outside the triangle."""
    import numpy as np
    from ps12splines.serialize import barycentric_lattice
    from ps12splines.spline_fn import eval_many
    frame = make_frame(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    barys = [tuple(float(x) for x in b) for b in barycentric_lattice(16)]
    assert any(b[0] == 0.5 for b in barys) and any(b[1] == b[2] for b in barys)
    rng = random.Random(44)
    for basis in "abcdef":
        s = Spline(frame, basis, tuple(rng.uniform(-10, 10) for _ in range(39)))
        many = eval_many(s, np.array(barys))
        one = [eval_spline(s, from_bary(frame, b)) for b in barys]
        assert [v.hex() for v in many.tolist()] == [v.hex() for v in one]
        with pytest.raises(OutsideDomain):
            eval_many(s, np.array([(0.5, 0.5 + 1e-6, -1e-6)]))
        with pytest.raises(OutsideDomain):
            eval_spline(s, Point2(0.5, -1e-6))


def test_eval_many_takes_n_by_3_arrays(ref):
    """eval_many reads an (n, 3) array, n = 0 included, and rejects other
    shapes rather than regrouping their entries into triples."""
    import numpy as np
    from ps12splines.errors import DimensionMismatch
    from ps12splines.spline_fn import eval_many
    s = Spline(ref, "c", (F(1),) * 39)
    assert eval_many(s, np.empty((0, 3))).shape == (0,)
    assert [round(v, 12) for v in eval_many(s, [(0.25, 0.25, 0.5)] * 2)] == [1.0, 1.0]
    for shape in ((6,), (3, 2), (1, 3, 3)):
        with pytest.raises(DimensionMismatch):
            eval_many(s, np.full(shape, 1 / 3))


@st.composite
def _float_barys(draw, roundoff=True):
    """Float macro-barycentrics of every kind the float kernels must agree
    on, in any coordinate order: interior points, points on the macro edges
    and on the split's interior lines (the medians b_j = b_k and the medial
    lines 2 b_i = 1, dyadic ones exactly on them), the split vertices, and
    with roundoff points just outside, down to -1e-9."""
    kinds = ["interior", "macro edge", "median", "medial", "vertex"] + ["roundoff"] * roundoff
    kind = draw(st.sampled_from(kinds))
    t, u = (draw(st.one_of(st.integers(0, 4096).map(lambda k: k / 4096), st.floats(0, 1)))
            for _ in range(2))
    if kind == "interior":
        beta = (t, u * (1 - t), 1 - t - u * (1 - t))
    elif kind == "macro edge":
        beta = (t, 1 - t, 0.0)
    elif kind == "median":
        beta = (t / 2, t / 2, 1 - t)
    elif kind == "medial":
        beta = (0.5, t / 2, 0.5 - t / 2)
    elif kind == "vertex":
        beta = tuple(map(float, draw(st.sampled_from(VERTEX_BARY))))
    else:
        e = draw(st.floats(0, 1e-9))
        beta = (t + e, 1 - t, -e)
    return tuple(beta[i] for i in draw(st.permutations(range(3))))


@settings(max_examples=60, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32), unit=st.booleans(),
       barys=st.lists(_float_barys(), min_size=1, max_size=30))
def test_float_eval_spline_and_eval_many_agree_bitwise_at_random_points(basis, seed, unit,
                                                                        barys):
    """Float eval_spline at Cartesian points and one eval_many batch at their
    barycentrics give equal bits, on the unit frame (where dyadic points stay
    exactly on the split lines) and on a seeded float frame; so do the
    scalar twin face_forms(s).value_at_bary and eval_many at the drawn
    barycentrics themselves, ties and snapped roundoff included."""
    import numpy as np
    from ps12splines.geometry import SNAP_TOL
    from ps12splines.spline_fn import eval_many
    rng = random.Random(seed)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    if not unit:
        corners = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
    frame = make_frame(*corners)
    s = Spline(frame, basis, tuple(rng.uniform(-10, 10) for _ in range(39)))
    pts = [p for p in (from_bary(frame, b) for b in barys)
           if min(to_bary(frame, p)) >= -SNAP_TOL]
    if pts:
        many = eval_many(s, np.array([to_bary(frame, p) for p in pts]))
        assert [v.hex() for v in many.tolist()] == [eval_spline(s, p).hex() for p in pts]
    many = eval_many(s, np.array(barys))
    assert [v.hex() for v in many.tolist()] == [face_forms(s).value_at_bary(b).hex() for b in barys]


def _composed_value(ords, beta):
    """The float value as functional_row and a left-to-right sum from 0
    composed it before float_value: the oracle of float_value's bits."""
    fi, den, row = functional_row(*_as_bary(beta))
    assert den == 1
    return reduce(add, map(mul, ords[fi - 1], row), 0)


@settings(max_examples=60, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32), unit=st.booleans(),
       barys=st.lists(_float_barys(), min_size=1, max_size=30))
def test_float_value_has_the_bits_of_functional_row_and_a_sum(basis, seed, unit, barys):
    """float_value, and float eval_spline and value_at_bary through it, give
    the bits of functional_row's row times the face's ordinates summed left
    to right from 0, on every basis, on the unit and a seeded float frame, at
    split lines, split vertices and snapped roundoff down to -1e-9; and on
    ordinates of -0.0, where the sum's start from int 0 shows in the sign."""
    rng = random.Random(seed)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    if not unit:
        corners = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
    frame = make_frame(*corners)
    s = Spline(frame, basis, tuple(rng.uniform(-10, 10) for _ in range(39)))
    ords = s._float_forms.ords
    zeros = ((-0.0,) * 21,) * 12
    for b in barys:
        assert float_value(zeros, b).hex() == _composed_value(zeros, b).hex() == "0x0.0p+0"
        want = _composed_value(ords, b).hex()
        assert float_value(ords, b).hex() == want
        assert face_forms(s).value_at_bary(b).hex() == want
        p = from_bary(frame, b)
        beta = to_bary(frame, p)
        if min(beta) >= -1e-9:
            assert eval_spline(s, p).hex() == _composed_value(ords, beta).hex()


#: Frames for every input kind: the unit triangle, where dyadic points stay
#: exactly on the split lines, and a general one; each float and exact.
_KIND_FRAMES = (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), ((0.3, -0.1), (2.7, 0.2), (0.1, 3.1)))
_COORDINATE_KINDS = {"float": float, "int": round, "Fraction": lambda x: F(x).limit_denominator(97),
                     "nan": lambda x: nan, "inf": lambda x: inf, "-inf": lambda x: -inf}
_NON_PAIRS = (None, 5, "ab", (0.25,), (0.25, 0.25, 0.5), [F(1, 4), 0.25, 0.5])


def _outcome(fn):
    """fn()'s value, bits for a float, or its error's type and message."""
    try:
        v = fn()
    except PS12Error as exc:
        return type(exc), str(exc)
    return v.hex() if isinstance(v, float) else v


@settings(max_examples=300, deadline=None)
@given(frame_at=st.sampled_from(_KIND_FRAMES), exact_frame=st.booleans(),
       clockwise=st.booleans(), exact_coeffs=st.booleans(), basis=st.sampled_from("abcdef"),
       beta=_float_barys(), kinds=st.tuples(*[st.sampled_from(
           ["float"] * 4 + ["int", "Fraction"] * 2 + ["nan", "inf", "-inf"])] * 2),
       container=st.sampled_from((Point2._make, tuple, list)), non_pair=st.sampled_from(
           [-1] * 12 + list(range(len(_NON_PAIRS)))), seed=st.integers(0, 2 ** 32))
def test_float_eval_spline_reads_every_input_kind(frame_at, exact_frame, clockwise, exact_coeffs,
                                                  basis, beta, kinds, container, non_pair, seed):
    """Float eval_spline has the bits of functional_row's row summed left to
    right at to_bary's barycentrics, or raises the error, message and all,
    that they raise: on float and exact frames of either orientation, at
    Point2, tuple and list points of int, Fraction, float and mixed
    coordinates, with float and exact coefficients, on split lines, macro
    edges and roundoff down to -1e-9, and at NaN and infinite coordinates
    (OutsideDomain) and non-pairs (DomainError).  to_bary's barycentrics are
    those of the exact point within 1e-9, and a point is outside exactly
    when they are not finite or one is below -SNAP_TOL."""
    from ps12splines.geometry import SNAP_TOL
    corners = frame_at[::-1] if clockwise else frame_at
    if exact_frame:
        corners = [(F(x).limit_denominator(97), F(y).limit_denominator(97)) for x, y in corners]
    frame = make_frame(*corners)
    rng = random.Random(seed)
    coeffs = [rng.uniform(-10, 10) for _ in range(39)]
    s = Spline(frame, basis, tuple(map(F, coeffs)) if exact_coeffs else tuple(coeffs))
    q = from_bary(make_frame(*[tuple(map(float, c)) for c in corners]), beta)
    p = _NON_PAIRS[non_pair] if non_pair >= 0 else container(
        [_COORDINATE_KINDS[k](x) for k, x in zip(kinds, q)])
    exact_point = non_pair < 0 and all(k in ("int", "Fraction") for k in kinds)
    assume(not (exact_point and s.exact))  # the exact layer
    got = _outcome(lambda: eval_spline(s, p))
    if non_pair >= 0:
        assert got[0] is DomainError and got == _outcome(lambda: to_bary(frame, p))
        return
    b = tuple(map(float, to_bary(frame, p)))
    assert got == _outcome(lambda: _composed_value(s._float_forms.ords, b))
    finite = all(map(math.isfinite, b))
    assert (got[0] is OutsideDomain) == (not finite or min(b) < -SNAP_TOL)
    if finite:
        exact = to_bary(make_frame(*[tuple(map(F, c)) for c in frame.corners]), tuple(map(F, p)))
        assert all(abs(x - y) <= 1e-9 for x, y in zip(b, exact))


OUTSIDE_BARYS = [(nan, 0.5, 0.5), (0.5, inf, -inf), (-inf, 1.0, 1.0),
                 (-0.1, 0.6, 0.5), (-2e-9, 0.5, 0.5 + 2e-9), (1e300, 1e300, -2e300)]


@pytest.mark.parametrize("beta", OUTSIDE_BARYS)
def test_float_value_raises_outside_domain_with_functional_rows_message(beta):
    """NaN, infinite and outside points raise OutsideDomain through
    float_value, value_at_bary and eval_spline, with functional_row's message."""
    s = Spline(make_frame((0.3, -0.1), (2.7, 0.2), (0.1, 3.1)), "d",
               tuple(float(k - 19) for k in range(39)))
    with pytest.raises(OutsideDomain) as want:
        functional_row(*_as_bary(beta))
    for call in (lambda: float_value(s._float_forms.ords, beta),
                 lambda: face_forms(s).value_at_bary(beta)):
        with pytest.raises(OutsideDomain) as got:
            call()
        assert str(got.value) == str(want.value)
    with pytest.raises(OutsideDomain):
        eval_spline(s, from_bary(s.frame, beta))


@settings(max_examples=60, deadline=None)
@given(barys=st.lists(_float_barys(), min_size=1, max_size=30))
def test_vectorised_face_cascade_matches_locate_face_bary(barys):
    """The batch kernel's face cascade equals geometry.locate_face_bary on
    snapped points, ties on the split lines and at the split vertices
    included (the lattice of 12 puts points on every split line)."""
    import numpy as np
    from ps12splines.serialize import barycentric_lattice
    from ps12splines.geometry import snap_bary
    from ps12splines.spline_fn import _locate_faces
    barys = [snap_bary(b) for b in barys] + [tuple(map(float, b)) for b in barycentric_lattice(12)]
    assert _locate_faces(*np.array(barys).T).tolist() == [locate_face_bary(*b) for b in barys]


def _gamma(n):
    """gamma_n = n u / (1 - n u) for the unit roundoff u = 2^-53, exactly."""
    u = F(1, 2 ** 53)
    return n * u / (1 - n * u)


@settings(max_examples=40, deadline=None)
@given(basis=st.sampled_from("abcdef"),
       coeffs=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=39, max_size=39),
       barys=st.lists(_float_barys(roundoff=False), min_size=1, max_size=8))
def test_float_layer_within_stated_error_bound(basis, coeffs, barys):
    """Float values against the exact layer at the same barycentrics beta
    (the floats as binary rationals) and coefficients c:

        |f~(beta) - f(beta)| <= gamma_n * sum_s B_s(g^) * sum_i |c_i T[f][s][i]| / Q

    with f the located face, (Q, T) = scaled_basis_tables and
    g^ = |M_f| beta the face barycentrics taken with the absolute values of
    the face's matrix, which bound those of beta entrywise and carry their
    rounding error (near a face edge a face barycentric is a difference of
    two terms, so its error is relative to g^, not to itself).  The kernel's
    operation count gives n = 40 + 22 + 21 = 83:

    * the 39-term contraction of the coefficients with the integer tables
      (exact as floats): one product, at most 38 additions left to right
      from 0 and one division by Q: 40;
    * the row: each face barycentric is one product and two additions with
      the integer matrix entries (exact as floats), 3, times the five
      factors of a quintic Bernstein polynomial, plus at most four
      multiplications in the powers and three in the row product: 22;
    * the 21-term sum from 0: one product and at most 20 additions: 21.

    The count assumes no underflow, so inputs below 2^-100 in magnitude are
    set to 0: every intermediate is then 0 or above 2^-950.
    """
    import numpy as np
    from ps12splines.spline_fn import eval_many, scaled_basis_tables

    def normal(xs):
        return [x if abs(x) >= 2 ** -100 else 0.0 for x in xs]

    coeffs, barys = normal(coeffs), [tuple(normal(b)) for b in barys]
    q, table = scaled_basis_tables(basis)
    assert all(type(x) is int for m in FACE_MATRICES for row in m for x in row)
    s = Spline(make_frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), basis, tuple(coeffs))
    exact_c = [F(c) for c in coeffs]
    for got, beta in zip(eval_many(s, np.array(barys)).tolist(), barys):
        beta = tuple(map(F, beta))
        want = sum(v * c for v, c in zip(basis_values(basis, beta), exact_c))
        fi = locate_face_bary(*beta)
        ghat = [sum(abs(m) * b for m, b in zip(row, beta)) for row in FACE_MATRICES[fi - 1]]
        bound = _gamma(83) * sum(r * sum(abs(c * t) for c, t in zip(exact_c, col)) / q
                                 for r, col in zip(_fraction_row(ghat), table[fi - 1]))
        assert abs(F(got) - want) <= bound


@settings(max_examples=20, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32))
def test_mixed_layer_branches_agree_with_the_exact_layer(basis, seed):
    """Where one operand is float and the other exact, the result is a
    float within the float layer's stated bound 1e-9 * max(1, max |c_i|)
    of the all-exact value, the floats taken as binary rationals: float
    basis_values, exact eval_spline at an exact point of a float-coefficient
    spline, functional_row with an exact point and a float direction, and
    FaceForms.value_at_bary with float ordinates at an exact point."""
    rng = random.Random(seed)
    frame = make_frame((F(rng.randint(-9, 0), 7), F(rng.randint(-9, 0), 5)),
                       (F(rng.randint(5, 20), 3), F(rng.randint(-3, 3), 11)),
                       (F(rng.randint(-3, 3), 13), F(rng.randint(5, 20), 3)))
    floats = tuple(rng.uniform(-10, 10) for _ in range(39))
    fs, es = Spline(frame, basis, floats), Spline(frame, basis, tuple(map(F, floats)))
    bound = 1e-9 * max(1.0, max(map(abs, floats)))
    point = rational_points(1, seed=seed, interior=False)[0]
    beta = (point.x, point.y, 1 - point.x - point.y)
    u = Point2(rng.uniform(-1, 1), rng.uniform(-1, 1))
    ue = Point2(F(u.x), F(u.y))
    got = basis_values(basis, tuple(map(float, beta)))
    assert max(abs(g - w) for g, w in zip(got, basis_values(basis, beta))) <= 1e-9
    want = eval_spline(es, from_bary(frame, beta))
    got = eval_spline(fs, from_bary(frame, beta))
    assert type(got) is float and abs(got - want) <= bound
    exact_forms, float_forms = face_forms(es), face_forms(fs)
    for k in range(4):
        want = exact_forms.value_at_bary(beta, (ue,) * k)
        got = [float_forms.value_at_bary(beta, (ue,) * k)]
        if k:
            got.append(exact_forms.value_at_bary(beta, (u,) * k))
        assert all(type(g) is float and abs(g - want) <= bound for g in got), k


def test_scaled_tables_equal_the_fraction_tables():
    """The integer tables over Q equal the Fraction oracle's tables."""
    for basis in "abcdef":
        q, table = scaled_basis_tables(basis)
        exact = [[[F(t, q) for t in row] for row in face] for face in table]
        assert exact == [[list(row) for row in face] for face in _fraction_tables(basis)]


@pytest.mark.parametrize("basis", list("abcdef"))
def test_float_coefficients_are_in_range_up_to_1e303(basis):
    """The float contraction forms each product of a table entry (up to Q)
    and a coefficient before it divides by Q, so coefficients of magnitude
    1e303 give finite ordinates, within the contraction's share gamma_40 of
    the stated error bound (rows of the table sum to Q), and positive ones
    of 1e306, which overflow an ordinate, raise DomainError naming the
    bound, in eval_spline and eval_many too (not inf, nor nan)."""
    from ps12splines.spline_fn import scaled_basis_tables
    q, table = scaled_basis_tables(basis)
    rng = random.Random(basis)
    frame = make_frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    signs = [rng.choice((-1, 1)) for _ in range(39)]
    c = [sign * 1e303 for sign in signs]
    ords = [o for face in Spline(frame, basis, tuple(c))._float_forms.ords for o in face]
    want = [sum(t * F(ci) for t, ci in zip(row, c)) / q for face in table for row in face]
    assert all(sum(row) == q for face in table for row in face)
    assert all(abs(F(o) - w) <= _gamma(40) * F(1e303) for o, w in zip(ords, want))
    big = Spline(frame, basis, (1e306,) * 39)
    for read in (lambda: big._float_forms, lambda: eval_spline(big, (0.2, 0.3)),
                 lambda: eval_many(big, [(0.2, 0.3, 0.5)])):
        with pytest.raises(DomainError, match="1.4e303"):
            read()


@pytest.mark.parametrize("basis", list("abcdef"))
def test_distinct_float_rows_are_the_domain_points_of_the_split(basis):
    """The float contraction's distinct rows are the split's 166 Bernstein
    domain points: two face ordinates share a row exactly when their domain
    points coincide (the face matrices map the point to the ordinate's face
    barycentrics), and each face's index map rebuilds its 21 table rows,
    columns and entries, as do the per-face integer entries."""
    faces, (gather, entries, counts), maps = spline_fn._nonzero_entries(basis)
    _, table = scaled_basis_tables(basis)
    assert len(counts) == 166 and len(entries) == sum(counts)
    assert all(type(t) is float and t == int(t) and abs(t) < 2 ** 17 for t in entries)
    columns, values = iter(gather(range(39))), iter(entries)
    rows = [[(next(columns), int(next(values))) for _ in range(n)] for n in counts]
    point_rows, row_points = {}, {}
    for fi, (corners, m, (fgather, fentries, fcounts)) in enumerate(zip(FACES, maps, faces)):
        assert fcounts == tuple(len(row) - row.count(0) for row in table[fi])
        assert fgather(range(39)) == tuple(i for row in table[fi] for i, t in enumerate(row) if t)
        assert fentries == tuple(t for row in table[fi] for t in row if t)
        for exponents, k, row in zip(bernstein_exponents(5), m(range(166)), table[fi]):
            assert rows[k] == [(i, t) for i, t in enumerate(row) if t]
            point = tuple(sum(F(e, 5) * VERTEX_BARY[v - 1][j] for e, v in zip(exponents, corners))
                          for j in range(3))
            face_bary = [sum(map(mul, r, point)) for r in FACE_MATRICES[fi]]
            assert face_bary == [F(e, 5) for e in exponents]
            point_rows.setdefault(point, set()).add(k)
            row_points.setdefault(k, set()).add(point)
    assert len(point_rows) == len(row_points) == 166
    assert all(len(v) == 1 for v in point_rows.values())
    assert all(len(v) == 1 for v in row_points.values())


def _float_ordinates_by_definition(s):
    """Each face ordinate the left-to-right sum from 0 of float(c_i) * T[f][s][i] over the
    nonzero entries of its row, divided by Q, as .hex(); or the DomainError of an overflow."""
    q, table = scaled_basis_tables(s.basis)
    fc = [float(c) for c in s.coeffs]
    ords = [reduce(add, (c * t for c, t in zip(fc, row) if t), 0) / q
            for face in table for row in face]
    return [o.hex() for o in ords] if all(map(math.isfinite, ords)) else DomainError


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                                1e303, -1e303, 1e306, -1e306, 1.0, -2.5])
_FLOAT_COEFFS = st.lists(st.one_of(_EDGE_FLOATS, st.floats(-1e303, 1e303)), min_size=39,
                         max_size=39)
_EXACT = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                   st.fractions(-10 ** 20, 10 ** 20, max_denominator=10 ** 9))


@settings(max_examples=120, deadline=None)
@given(basis=st.sampled_from("abcdef"),
       kind=st.sampled_from(["float", "exact", "lagrange", "float lagrange", "1e306"]),
       floats=_FLOAT_COEFFS, exact=st.lists(_EXACT, min_size=39, max_size=39),
       frame=st.sampled_from([((F(1, 3), F(-2, 7)), (F(13, 5), F(1, 9)), (F(2, 11), F(17, 6))),
                              ((0.5, 0.25), (0.0, 1.0), (-1.5, 0.0))]))
def test_float_ordinates_have_the_bits_of_their_definition(basis, kind, floats, exact, frame):
    """_float_forms.ords, read through the 166 distinct rows, carry the bits of the per-face
    definition on all six bases: float coefficients (signed zeros, subnormals, mixed 1e303),
    exact ones from the constructor and from lagrange_interpolate (x / L, without making the
    coefficient Fractions), float lagrange_interpolate splines; and DomainError exactly where
    the definition overflows (1e306)."""
    frame = make_frame(*frame)
    if kind == "1e306":
        floats = [x * 1e3 if abs(x) <= 1e303 else x for x in floats]
    if kind.endswith("lagrange"):
        s = lagrange_interpolate(basis, frame, exact if kind == "lagrange" else
                                 [x * 1e-10 for x in floats])
    else:
        s = Spline(frame, basis, tuple(exact if kind == "exact" else floats))
    try:
        got = [o.hex() for face in s._float_forms.ords for o in face]
    except DomainError as e:
        assert "1.4e303" in str(e)
        got = DomainError
    assert kind != "lagrange" or "coeffs" not in vars(s)
    assert got == _float_ordinates_by_definition(s)


@pytest.mark.parametrize("basis", list("abcdef"))
def test_eval_many_of_an_exact_interpolant_makes_no_coefficient_fractions(basis):
    """eval_many on lagrange_interpolate's exact spline takes its float coefficients as x / L
    from the kept integers: no coefficient Fractions are made, and the values have the bits of
    the float spline with coefficients float(c)."""
    rng = random.Random(basis)
    frame = make_frame((F(1, 3), F(-2, 7)), (F(13, 5), F(1, 9)), (F(2, 11), F(17, 6)))
    s = lagrange_interpolate(basis, frame, [F(rng.randint(-999, 999), rng.randint(1, 99))
                                            for _ in range(39)])
    barys = [(0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (0.1, 0.45, 0.45), (1 / 3, 1 / 3, 1 / 3)]
    got = eval_many(s, barys).tolist()
    assert "coeffs" not in vars(s)
    want = eval_many(Spline(frame, basis, tuple(map(float, s.coeffs))), barys).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in want]


# ---------------------------------------------------------------------------
# The exact kernels against the Fraction row-times-table oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fraction_tables(basis):
    """12 x 21 x 39 Fractions w_i / den_i * n: the scaled per-face tables as
    the library kept them before its kernels went fraction-free."""
    parts = []
    for el in catalog(basis).elements:
        den, faces = _face_ordinates(el.multiset)
        parts.append((el.weight / den, [f or (0,) * 21 for f in faces]))
    return tuple(tuple(tuple(sc * t[fi][s] for sc, t in parts) for s in range(21))
                 for fi in range(12))


def _fraction_row(g):
    """The quintic Bernstein row at face barycentrics g, in Fractions."""
    return [F(factorial(5), factorial(a) * factorial(b) * factorial(c))
            * g[0] ** a * g[1] ** b * g[2] ** c for a, b, c in bernstein_exponents(5)]


def test_float_basis_values_sum_left_to_right_without_numpy():
    """Float basis_values is a tuple with the bits of the left-to-right sum,
    from 0, of the located float row times a column of the integer table,
    divided once by Q; a fresh interpreter computes it without numpy."""
    rng = random.Random(43)
    for basis in "abcdef":
        q, table = scaled_basis_tables(basis)
        for _ in range(10):
            a, b = sorted((rng.random(), rng.random()))
            beta = (a, b - a, 1 - b)
            fi, _, row = functional_row(*_as_bary(beta))
            want = []
            for col in zip(*table[fi - 1]):
                total = 0
                for r, t in zip(row, col):
                    total = total + r * t
                want.append((total / q).hex())
            got = basis_values(basis, beta)
            assert type(got) is tuple and [g.hex() for g in got] == want
    code = ("import sys\n"
            "from ps12splines.spline_fn import basis_values\n"
            "assert len(basis_values('c', (0.3, 0.2, 0.5))) == 39\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-1500:]


def _fraction_face_bary(fi, beta):
    """Face barycentrics on face fi: the product with the integer matrix."""
    m = FACE_MATRICES[fi - 1]
    return tuple(m[r][0] * beta[0] + m[r][1] * beta[1] + m[r][2] * beta[2] for r in range(3))


def _oracle_basis_values(basis, beta):
    fi = locate_face_bary(*beta)
    row = _fraction_row(_fraction_face_bary(fi, beta))
    vals = [F(0)] * 39
    for r, tj in zip(row, _fraction_tables(basis)[fi - 1]):
        if r:
            for i, t in enumerate(tj):
                if t:
                    vals[i] += r * t
    return tuple(vals)


def _oracle_face_forms(s):
    return tuple(tuple(sum((t * c for t, c in zip(tj, s.coeffs) if t), F(0)) for tj in face)
                 for face in _fraction_tables(s.basis))


def _seeded_spline(basis, seed):
    """A spline of the basis on a seeded rational frame with seeded rational
    coefficients (and a few integer ones)."""
    rng = random.Random(seed)
    while True:
        corners = [(F(rng.randint(-40, 40), rng.randint(1, 9)),
                    F(rng.randint(-40, 40), rng.randint(1, 9))) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = corners
        if (bx - ax) * (cy - ay) != (by - ay) * (cx - ax):
            break
    coeffs = tuple(rng.randint(-9, 9) if k % 7 == 0 else F(rng.randint(-99, 99), rng.randint(1, 60))
                   for k in range(39))
    return Spline(make_frame(*corners), basis, coeffs)


def _check_against_oracle(s, beta):
    p = from_bary(s.frame, beta)
    assert to_bary(s.frame, p) == beta
    want = _oracle_basis_values(s.basis, beta)
    assert basis_values(s.basis, beta) == want
    got = eval_spline(s, p)
    assert isinstance(got, F) and got == sum((v * c for v, c in zip(want, s.coeffs)), F(0))
    fi, den, row = functional_row(*_as_bary(beta))
    assert fi == locate_face_bary(*beta) and all(type(r) is int for r in row)
    assert [F(r, den) for r in row] == _fraction_row(_fraction_face_bary(fi, beta))


def _face_point(fi, weights):
    """Macro-barycentrics of the combination of face fi's corners with the
    given nonnegative weights: zeros give edge points and split vertices."""
    tot = sum(weights)
    return tuple(sum(F(w, tot) * VERTEX_BARY[v - 1][r] for w, v in zip(weights, FACES[fi - 1]))
                 for r in range(3))


@settings(max_examples=60, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32),
       fi=st.integers(1, 12), weights=st.tuples(*[st.integers(0, 40)] * 3)
       .filter(lambda w: sum(w) > 0))
def test_exact_kernels_match_fraction_oracle(basis, seed, fi, weights):
    """Exact eval_spline, basis_values, functional_row and face_forms equal the
    Fraction oracle at rational points of any face, its edges (macro edges
    among them) and its corners, on a seeded rational frame."""
    s = _seeded_spline(basis, seed)
    _check_against_oracle(s, _face_point(fi, weights))
    assert face_forms(s).ords == _oracle_face_forms(s)


def test_exact_kernels_at_split_vertices_and_edge_points():
    """The ten split vertices and the midpoint and a third-point of every
    face edge, where the half-open convention picks the face: exact values
    equal the oracle on every basis."""
    betas = {VERTEX_BARY[v - 1] for v in range(1, 11)}
    for fi in range(1, 13):
        for k in range(3):
            for w in ((1, 1), (1, 2)):
                weights = [0, 0, 0]
                weights[k], weights[(k + 1) % 3] = w
                betas.add(_face_point(fi, weights))
    assert len(betas) == 10 + 21 + 36  # vertices, edge midpoints, third-points
    for basis in "abcdef":
        s = _seeded_spline(basis, ord(basis))
        for beta in sorted(betas):
            _check_against_oracle(s, beta)


@settings(max_examples=12, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32))
def test_lagrange_is_the_exact_solve(basis, seed):
    """lagrange_interpolate equals linalg.solve on the collocation matrix for
    random rational values; float values give the float coefficients."""
    rng = random.Random(seed)
    v = [F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(39)]
    M, _, _ = collocation_at_domain_points(basis)
    s = _seeded_spline(basis, seed)
    got = lagrange_interpolate(basis, s.frame, v).coeffs
    assert got == tuple(x for (x,) in solve([list(r) for r in M], [[x] for x in v]))
    approx = lagrange_interpolate(basis, s.frame, [float(x) for x in v]).coeffs
    assert all(isinstance(a, float) and abs(a - float(x)) <= 1e-9 * (1 + abs(x))
               for a, x in zip(approx, got))


#: The split's lines where two faces meet or the macrotriangle ends, each
#: as its vertices in order: the macro edges and the interior lines.
_TIE_LINES = tuple(EDGES.values()) + tuple(
    sorted(line, key=lambda v: VERTEX_BARY[v - 1]) for line in INTERIOR_LINES)


@settings(max_examples=60, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32),
       line=st.sampled_from(_TIE_LINES), k=st.integers(0, 2),
       t=st.fractions(0, 1, max_denominator=50))
def test_exact_eval_on_edges_and_interior_lines_is_basis_values_times_coefficients(
        basis, seed, line, k, t):
    """On a macro edge or an interior line of the split, where the face is
    a tie broken by the half-open convention, exact eval_spline (the
    sparse per-face contraction) equals basis_values (the full table
    column) times the coefficients; a Lagrange interpolant, which carries
    the integer coefficients of its mat-vec, evaluates like a fresh Spline
    with its coefficients."""
    i, j = line[min(k, len(line) - 2)], line[min(k, len(line) - 2) + 1]
    beta = tuple((1 - t) * a + t * b for a, b in zip(VERTEX_BARY[i - 1], VERTEX_BARY[j - 1]))
    s = _seeded_spline(basis, seed)
    p = from_bary(s.frame, beta)
    assert to_bary(s.frame, p) == beta
    want = sum((v * c for v, c in zip(basis_values(basis, beta), s.coeffs)), F(0))
    got = eval_spline(s, p)
    assert type(got) is F and got == want
    lag = lagrange_interpolate(basis, s.frame, s.coeffs)
    assert eval_spline(lag, p) == eval_spline(Spline(s.frame, basis, lag.coeffs), p)


_exact_coordinate = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32),
       corners=st.lists(st.tuples(st.integers(-9, 9), _exact_coordinate), min_size=3, max_size=3),
       clockwise=st.booleans(), xy=st.tuples(_exact_coordinate, _exact_coordinate),
       form=st.sampled_from(("Point2", "tuple", "list")))
def test_exact_eval_spline_is_the_functional_row_times_the_face_forms(basis, seed, corners,
                                                                      clockwise, xy, form):
    """Exact eval_spline at a Point2, tuple or list of int and Fraction
    coordinates, on a frame of either orientation, equals the Fraction
    oracle: functional_row at the point's Fraction barycentrics dotted with
    the face's ordinates of face_forms.  Outside the triangle both raise
    OutsideDomain with the same message."""
    (ax, ay), (bx, by), (cx, cy) = corners
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    assume(area2 != 0)
    if (area2 < 0) != clockwise:
        corners = corners[::-1]
    s = Spline(make_frame(*corners), basis, _seeded_spline(basis, seed).coeffs)
    assert (s.frame._int_corners[2] < 0) == clockwise
    p = {"Point2": Point2(*xy), "tuple": tuple(xy), "list": list(xy)}[form]
    try:
        fi, den, row = functional_row(*_as_bary(to_bary(s.frame, Point2(*xy))))
    except OutsideDomain as exc:
        with pytest.raises(OutsideDomain) as info:
            eval_spline(s, p)
        assert str(info.value) == str(exc)
        return
    got = eval_spline(s, p)
    assert type(got) is F and got == sum(map(mul, row, face_forms(s).ords[fi - 1])) / den


@settings(max_examples=30, deadline=None)
@given(basis=st.sampled_from("abcdef"),
       values=st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=60) | st.integers(-99, 99),
                       min_size=39, max_size=39))
def test_exact_lagrange_is_the_dense_integer_mat_vec(basis, values):
    """Exact lagrange_interpolate, a sparse mat-vec, equals the dense oracle
    Fraction(sum_j N[i][j] v_j, den d) on the reduced inverse N / d and the
    values v / den; the spline it returns, whose coefficients are made on
    first read, is equal to, hashes, prints and serializes like the Spline
    built from those coefficients, whichever of these reads them first."""
    from ps12splines.serialize import dumps, spline_to_dict
    _, d, n, _ = spline_fn._collocation(basis)
    den, v = common_denominator(values)
    frame = _seeded_spline(basis, 0).frame
    fresh = Spline(frame, basis, tuple(F(sum(map(mul, r, v)), den * d) for r in n))
    for same in (lambda t: t == fresh, lambda t: hash(t) == hash(fresh),
                 lambda t: repr(t) == repr(fresh), lambda t: t.coeffs == fresh.coeffs,
                 lambda t: dumps(spline_to_dict(t)) == dumps(spline_to_dict(fresh))):
        assert same(lagrange_interpolate(basis, frame, values))


@pytest.mark.parametrize("bad", [nan, inf, "1", None, 1j])
def test_lagrange_rejects_values_that_are_not_finite_reals(ref, bad):
    """A non-finite or non-numeric value raises DomainError, in either
    layer's company."""
    for other in (F(1, 3), 0.5):
        with pytest.raises(DomainError):
            lagrange_interpolate("c", ref, [other] * 38 + [bad])


@pytest.mark.parametrize("basis", list("abcdef"))
def test_collocation_is_the_inverse_of_the_basis_value_rows(basis):
    """(M, M^-1, K) of collocation_at_domain_points, whose inverse is kept
    over its reduced denominator, equal the basis_values rows at the domain
    points, linalg.inverse of them and its max-norm."""
    rows = [list(basis_values(basis, el.domain_point)) for el in catalog(basis).elements]
    m, minv, cond = collocation_at_domain_points(basis)
    want = inverse(rows)
    assert [list(r) for r in m] == rows
    assert [list(r) for r in minv] == want
    assert cond == inf_norm(want)


@lru_cache(maxsize=None)
def _unreduced_inverse(basis):
    """(d, N): the inverse of the collocation matrix as _integer_solve gives
    it, over the last Bareiss pivot d, before any gcd is divided out."""
    rows = [basis_values(basis, el.domain_point) for el in catalog(basis).elements]
    return _integer_solve(rows, identity(len(rows)))


@settings(max_examples=30, deadline=None)
@given(basis=st.sampled_from("abcdef"),
       values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=39, max_size=39))
def test_float_lagrange_has_the_bits_of_the_unreduced_inverse(basis, values):
    """Float lagrange_interpolate reads each entry x / d of the reduced
    inverse; int true division rounds correctly, so its coefficients have
    the bits of the same sums over the unreduced pair of _integer_solve,
    added left to right from 0 (not by sum(), which compensates floats
    from Python 3.12)."""
    d, n = _unreduced_inverse(basis)
    want = []
    for r in n:
        total = 0
        for x, y in zip(r, values):
            total = total + x / d * y
        want.append(total)
    got = lagrange_interpolate(basis, make_frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), values)
    assert [g.hex() for g in got.coeffs] == [w.hex() for w in want]


def test_float_lagrange_reads_one_float_inverse_made_on_its_first_call():
    """The float entries x / d of the inverse are made once per basis, on the first float
    lagrange_interpolate, not with the exact collocation, and every later call reads them."""
    spline_fn._float_inverse.cache_clear()
    spline_fn._collocation("e")
    assert spline_fn._float_inverse.cache_info().currsize == 0
    frame, rng = make_frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), random.Random(5)
    first = [lagrange_interpolate("e", frame, [rng.uniform(-1, 1) for _ in range(39)])
             for _ in range(3)]
    info = spline_fn._float_inverse.cache_info()
    assert (info.misses, info.hits) == (1, 2) and all(type(c) is float for c in first[0].coeffs)
    _, d, n, _ = spline_fn._collocation("e")
    assert spline_fn._float_inverse("e") == tuple(tuple(x / d for x in r) for r in n)


@pytest.mark.parametrize("exact", [True, False])
def test_value_at_bary_reads_a_tuple_direction_as_its_point2(exact):
    """A direction, like a point, is any pair: a tuple or a list gives the
    value of its Point2, exact or float."""
    num = F if exact else float
    s = Spline(make_frame((0, 0), (3, 1), (1, 2)), "c", tuple(num(k - 19) / 7 for k in range(39)))
    forms, beta = face_forms(s), (F(1, 5), F(3, 10), F(1, 2))
    for u in ((num(1), num(-2) / 3), (num(0), num(1))):
        want = forms.value_at_bary(beta, [Point2(*u)] * 2)
        assert forms.value_at_bary(beta, [u, list(u)]) == want
        assert type(want) is (F if exact else float)


def test_eval_linear_in_coefficients(ref):
    rng = random.Random(43)
    ca = tuple(F(rng.randint(-9, 9), 4) for _ in range(39))
    cb = tuple(F(rng.randint(-9, 9), 4) for _ in range(39))
    sa, sb = Spline(ref, "c", ca), Spline(ref, "c", cb)
    sc = Spline(ref, "c", tuple(2 * a - 3 * b for a, b in zip(ca, cb)))
    for p in rational_points(3, seed=44):
        assert eval_spline(sc, p) == 2 * eval_spline(sa, p) - 3 * eval_spline(sb, p)


def test_collocation_matrix_row_sums_norm_and_condition():
    M, Minv, cond = collocation_at_domain_points("c")
    assert all(sum(row) == 1 for row in M)
    assert inf_norm([list(r) for r in M]) == 1
    assert cond == K_EXACT
    assert abs(float(cond) - 72.7901) < 1e-4


def test_float_layer_matches_exact(ref):
    rng = random.Random(45)
    coeffs = tuple(F(rng.randint(-50, 50), 7) for _ in range(39))
    s = Spline(ref, "c", coeffs)
    sf = Spline(ref, "c", tuple(float(c) for c in coeffs))
    for p in rational_points(5, seed=46):
        exact = eval_spline(s, p)
        approx = eval_spline(sf, Point2(float(p.x), float(p.y)))
        assert abs(float(exact) - approx) < 1e-12


def test_lagrange_interpolation_round_trip(ref):
    spec = catalog("c")
    rng = random.Random(47)
    for _ in range(3):
        coeffs = tuple(F(rng.randint(-30, 30), 11) for _ in range(39))
        s = Spline(ref, "c", coeffs)
        vals = [eval_spline(s, from_bary(ref, el.domain_point)) for el in spec.elements]
        assert lagrange_interpolate("c", ref, vals).coeffs == coeffs
    ones = lagrange_interpolate("c", ref, [F(1)] * 39)
    assert ones.coeffs == (F(1),) * 39


def test_interpolation_reproduces_bernstein_quintics(ref):
    spec = catalog("c")

    def bern(i1, i2, i3, beta):
        return F(factorial(5), factorial(i1) * factorial(i2) * factorial(i3)) \
            * beta[0] ** i1 * beta[1] ** i2 * beta[2] ** i3

    for i1 in range(6):
        for i2 in range(6 - i1):
            i3 = 5 - i1 - i2
            vals = [bern(i1, i2, i3, el.domain_point) for el in spec.elements]
            s = lagrange_interpolate("c", ref, vals)
            # must equal the exact expansion coefficients (scaled by weights)
            expect = tuple(el.dual_product().get((i1, i2, i3), 0) / el.weight
                           for el in spec.elements)
            assert s.coeffs == expect, (i1, i2, i3)


def test_stability_sandwich(ref):
    """max-norm of the spline is between K^-1 ||c|| and ||c||."""
    from ps12splines.serialize import barycentric_lattice
    _, _, cond = collocation_at_domain_points("c")
    rng = random.Random(48)
    lattice = [tuple(float(x) for x in b) for b in barycentric_lattice(14)]
    from ps12splines.spline_fn import eval_many
    import numpy as np
    barys = np.array(lattice)
    for _ in range(100):
        coeffs = tuple(F(rng.randint(-100, 100)) for _ in range(39))
        s = Spline(ref, "c", coeffs)
        grid_max = float(max(abs(v) for v in eval_many(s, barys)))
        cmax = float(max(abs(c) for c in coeffs))
        assert grid_max <= cmax + 1e-9
        assert cmax <= 1.05 * float(cond) * grid_max


def test_control_mesh_structure(ref):
    edges = control_mesh_edges()
    assert len(edges) == 81
    spec = catalog("c")
    # symmetry: the edge set is invariant under the vertex permutations
    from ps12splines.geometry import S3_ELEMENTS, s3_apply_bary
    index = {el.domain_point: i for i, el in enumerate(spec.elements)}
    for sigma in S3_ELEMENTS:
        mapped = set()
        for a, b in edges:
            pa = s3_apply_bary(sigma, spec.elements[a].domain_point)
            pb = s3_apply_bary(sigma, spec.elements[b].domain_point)
            mapped.add(tuple(sorted((index[pa], index[pb]))))
        assert mapped == set(edges)
    # boundary chains contain 8 points per macro edge
    for coord in range(3):
        chain = [i for i, el in enumerate(spec.elements) if el.domain_point[coord] == 0]
        assert len(chain) == 8
        on_chain = [e for e in edges if e[0] in chain and e[1] in chain]
        assert len(on_chain) == 7
    s = Spline(ref, "c", tuple(from_bary(ref, el.domain_point).x for el in spec.elements))
    cm = control_mesh(s)
    assert len(cm.points) == 39
    with pytest.raises(UnsupportedBasis):
        control_mesh(Spline(ref, "a", (F(0),) * 39))


def test_control_distance_bound_linear_exact(ref):
    spec = catalog("c")
    s = Spline(ref, "c", tuple(3 * from_bary(ref, el.domain_point).x -
                               from_bary(ref, el.domain_point).y + F(1, 2)
                               for el in spec.elements))
    rep = control_distance_bound_check(s, F(0))
    assert rep["max_gap"] == 0


def test_control_distance_bound_quadratic_and_scaling():
    spec = catalog("c")

    def run(scale):
        frame = make_frame(Point2(F(0), F(0)), Point2(scale, F(0)), Point2(F(0), scale))
        # f(x, y) = x*y: hessian [[0, 1], [1, 0]] has max-norm 1
        vals = []
        for el in spec.elements:
            p = from_bary(frame, el.domain_point)
            vals.append(p.x * p.y)
        s = lagrange_interpolate("c", frame, vals)
        rep = control_distance_bound_check(s, F(1))
        return rep["max_gap"]

    g1 = run(F(1))
    g2 = run(F(1, 2))
    assert g1 > 0
    assert g1 / g2 >= 4  # h -> h/2 shrinks the gap at least 4x


def test_bound_violated_signals(ref):
    spec = catalog("c")
    vals = []
    for el in spec.elements:
        p = from_bary(ref, el.domain_point)
        vals.append(p.x * p.y)
    s = lagrange_interpolate("c", ref, vals)
    with pytest.raises(BoundViolated):
        control_distance_bound_check(s, F(0))  # lying about the hessian


def test_int_coefficients_evaluate_exactly(ref):
    """ints are exact input: the value is the Fraction the same
    coefficients give as Fractions."""
    rng = random.Random(47)
    ints = tuple(rng.randint(-9, 9) for _ in range(39))
    s_int = Spline(ref, "c", ints)
    s_frac = Spline(ref, "c", tuple(F(c) for c in ints))
    for p in rational_points(4, seed=48):
        got = eval_spline(s_int, p)
        assert isinstance(got, F) and got == eval_spline(s_frac, p)


def test_face_forms_cache_keeps_each_layer():
    """An exact and a float spline that compare equal each get face forms of
    their own layer, whichever is built first."""
    from ps12splines.spline_fn import face_forms
    for first_exact, k0 in ((True, 1), (False, 2)):
        coeffs = [F(k0 + k, 4) for k in range(39)]
        exact = Spline(make_frame((0, 0), (3, 0), (0, 3)), "c", tuple(coeffs))
        flt = Spline(make_frame((0.0, 0.0), (3.0, 0.0), (0.0, 3.0)), "c",
                     tuple(float(c) for c in coeffs))
        assert exact == flt and hash(exact) == hash(flt)
        order = (exact, flt) if first_exact else (flt, exact)
        forms = {id(s): face_forms(s) for s in order}
        assert all(isinstance(o, F) for face in forms[id(exact)].ords for o in face)
        assert all(isinstance(o, float) for face in forms[id(flt)].ords for o in face)


def test_int_frame_stays_exact():
    """make_frame keeps int corners exact, so eval_spline and face_forms
    both give Fractions, and the same ones."""
    from ps12splines.geometry import to_bary
    from ps12splines.spline_fn import face_forms
    frame = make_frame((0, 0), (3, 0), (1, 2))
    assert all(isinstance(c, F) for v in frame.v for c in v)
    rng = random.Random(49)
    s = Spline(frame, "c", tuple(F(rng.randint(-9, 9), 4) for _ in range(39)))
    ff = face_forms(s)
    assert all(isinstance(o, F) for face in ff.ords for o in face)
    for p in (Point2(1, 1), Point2(F(3, 2), F(1, 3)), Point2(F(1, 2), F(1, 5))):
        got = eval_spline(s, p)
        assert isinstance(got, F) and got == ff.value_at_bary(to_bary(frame, p))
