"""Every exact reader of a value or derivative on the integer route, against
the Fraction route of fraction_route: the same Fractions for exact input,
the same float bits for float input."""

import random
from fractions import Fraction as F
from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_route as oracle
from ps12splines.geometry import (EDGES, INTERIOR_LINES, VERTEX_BARY, Point2, from_bary,
                                  make_frame)
from ps12splines.marsden_catalog import catalog
from ps12splines.simplex_spline import degree, derivative, eval_simplex, knots
from ps12splines.spline_fn import Spline, basis_values, face_forms

_COORD = st.fractions(-4, 4, max_denominator=9)
_COEF = st.fractions(-3, 3, max_denominator=7)
#: The multisets of basis c, plus two of lower degree and one of degree 8.
_MULTISETS = tuple(el.multiset for el in catalog("c").elements) + ("111", "2101", "3332")


@st.composite
def _point_bary(draw):
    """Macro-barycentrics of a split vertex, of a point on a macro edge or a
    split line, or of a random point of the closed triangle."""
    kind = draw(st.sampled_from(("vertex", "edge", "random")))
    if kind == "vertex":
        return VERTEX_BARY[draw(st.integers(0, 9))]
    if kind == "edge":
        line = draw(st.sampled_from((*INTERIOR_LINES, *EDGES.values())))
        i, j = draw(st.sampled_from(list(combinations(line, 2))))
        t = draw(st.fractions(0, 1, max_denominator=24))
        return tuple((1 - t) * a + t * b for a, b in zip(VERTEX_BARY[i - 1], VERTEX_BARY[j - 1]))
    a, b = sorted(draw(st.fractions(0, 1, max_denominator=97)) for _ in range(2))
    return (a, b - a, 1 - b)


def _same(got, want):
    """Equal values of the same type; floats bit for bit."""
    assert type(got) is type(want), (got, want)
    assert got.hex() == want.hex() if isinstance(got, float) else got == want, (got, want)


@settings(max_examples=60, deadline=None)
@given(corners=st.tuples(*(st.tuples(_COORD, _COORD),) * 3), clockwise=st.booleans(),
       float_frame=st.booleans(), beta=_point_bary(), float_point=st.booleans(),
       K=st.sampled_from(_MULTISETS), a=st.tuples(_COEF, _COEF), float_direction=st.booleans(),
       basis=st.sampled_from("abcdef"), seed=st.integers(0, 2 ** 32))
@example(corners=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))), clockwise=False, float_frame=False,
         beta=(F(1, 5), F(3, 10), F(1, 2)), float_point=False, K="3332", a=(F(1, 2), F(-1, 3)),
         float_direction=False, basis="c", seed=0)  # degree 8, nonzero at orders 0-5
def test_every_reader_matches_the_fraction_route(corners, clockwise, float_frame, beta,
                                                 float_point, K, a, float_direction, basis,
                                                 seed):
    """eval_simplex, derivative of orders 1-5 (to the degree), basis_values and
    FaceForms.value_at_bary with 0-2 directions, on both orientations of
    an exact frame and of its float copy, at split vertices, edge points
    and random points, exact or float; a direction exact or float, so an
    exact point also meets a float direction."""
    rng = random.Random(seed)
    u, v, w = corners[::-1] if clockwise else corners
    assume((v[0] - u[0]) * (w[1] - u[1]) != (v[1] - u[1]) * (w[0] - u[0]))
    frame = make_frame(*(tuple(map(float, x)) if float_frame else x for x in (u, v, w)))
    p, beta = from_bary(frame, beta), tuple(map(float, beta)) if float_point else beta
    if float_point:
        p = tuple(map(float, p))
    _same(eval_simplex(frame, K, p), oracle.derivative(frame, K, (0, 0, 0), 0)(p))
    direction = (a[0], a[1], -a[0] - a[1])
    if float_direction:  # kept when its floats sum to 0 exactly
        direction = tuple(map(float, direction))
    if sum(map(F, direction)) == 0:
        for order in range(1, min(5, degree(knots(K))) + 1):
            _same(derivative(frame, K, direction, order)(p),
                  oracle.derivative(frame, K, direction, order)(p))
    for got, want in zip(basis_values(basis, beta), oracle.basis_values(basis, beta)):
        _same(got, want)
    coeffs = tuple(F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(39))
    forms = face_forms(Spline(frame, basis, coeffs if rng.random() < 0.7 else
                              tuple(map(float, coeffs))))
    vectors = [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in "xy") for _ in "uv"]
    vectors = [rng.choice((Point2(*x), x, tuple(map(float, x)))) for x in vectors]
    for n in range(3):
        _same(forms.value_at_bary(beta, vectors[:n]),
              oracle.value_at_bary(forms, beta, vectors[:n]))
