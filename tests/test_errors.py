"""Bad input raises the library's typed errors, not bare ValueError."""

import math

import pytest

from ps12splines import (basis_search, bspline1d, dual_functionals, geometry, marsden_catalog,
                         serialize, simplex_spline, spline_fn)
from ps12splines.errors import DomainError, InvalidDirection, OutsideDomain, PS12Error

K = simplex_spline.knots("141110")

BAD_CALLS = {
    "knots": lambda: simplex_spline.knots((1, -1)),
    "knots float multiplicity": lambda: simplex_spline.knots([2.7, 1, 0, 1, 0, 1]),
    "knots bool multiplicity": lambda: simplex_spline.knots([True, 1, 0, 1, 0, 5]),
    "knots non-digit": lambda: simplex_spline.knots("6001a1"),
    "knots int spec": lambda: simplex_spline.knots(6),
    "knots None": lambda: simplex_spline.knots(None),
    "insert_knot zero": lambda: simplex_spline.insert_knot(K, 0),
    "insert_knot negative": lambda: simplex_spline.insert_knot(K, -1),
    "insert_knot eleven": lambda: simplex_spline.insert_knot(K, 11),
    "insert_knot float": lambda: simplex_spline.insert_knot(K, 2.0),
    "insert_knot bool": lambda: simplex_spline.insert_knot(K, True),
    "smoothness_order negative": lambda: simplex_spline.smoothness_order(K, -1),
    "smoothness_order six": lambda: simplex_spline.smoothness_order(K, 6),
    "edge_key name": lambda: simplex_spline.edge_key("e4"),
    "edge_key pair": lambda: simplex_spline.edge_key((1, 5)),
    "bspline degree": lambda: bspline1d.UnivariateBSplineRef(6, 1),
    "bspline index": lambda: bspline1d.UnivariateBSplineRef(5, 9),
    "expand_window total": lambda: bspline1d.expand_window(5, 1, 1, 1),
    "expand_window halves": lambda: bspline1d.expand_window(2, 0, 3, 1),
    "expand_window negative count": lambda: bspline1d.expand_window(5, -1, 2, 6),
    "expand_window str degree": lambda: bspline1d.expand_window("5", 1, 2, 4),
    "bspline bool index": lambda: bspline1d.UnivariateBSplineRef(5, True),
    "bspline str degree": lambda: bspline1d.UnivariateBSplineRef("5", 1),
    "bspline_derivative negative order": lambda: bspline1d.bspline_derivative(
        bspline1d.UnivariateBSplineRef(5, 3), 0, -1),
    "bernstein_expansion": lambda: marsden_catalog.bernstein_expansion(
        marsden_catalog.catalog("c"), 1, 1, 1),
    "barycentric_lattice": lambda: serialize.barycentric_lattice(0),
    "s3_vertex_permutation": lambda: geometry.s3_vertex_permutation((1, 1, 2)),
    "filter_pipeline stage": lambda: basis_search.filter_pipeline([], stage="bogus"),
    "collocation float frame": lambda: dual_functionals.collocation(
        geometry.make_frame((0.3, -0.1), (2.7, 0.2), (0.1, 3.1)), [K]),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_input_raises_typed_error(name):
    with pytest.raises(PS12Error) as info:
        BAD_CALLS[name]()
    assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)


BAD_DIRECTIONS = {
    "four entries": (1, -1, 1, -1),
    "two entries": (1, -1),
}


@pytest.mark.parametrize("name", sorted(BAD_DIRECTIONS))
def test_bad_direction_raises_invalid_direction(name):
    with pytest.raises(InvalidDirection):
        simplex_spline.derivative_expansion(K, BAD_DIRECTIONS[name])


@pytest.mark.parametrize("order", [-1, 6])
def test_derivative_order_outside_0_to_degree_raises_invalid_direction(order):
    with pytest.raises(InvalidDirection):
        simplex_spline.derivative_expansion(K, (1, -1, 0), order)


FLOAT_FRAME = geometry.make_frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
FLOAT_SPLINE = spline_fn.Spline(FLOAT_FRAME, "c", tuple(float(i) for i in range(39)))

NON_FINITE_CALLS = {
    "eval_spline x": lambda bad: spline_fn.eval_spline(FLOAT_SPLINE, (bad, 0.2)),
    "eval_spline y": lambda bad: spline_fn.eval_spline(FLOAT_SPLINE, (0.2, bad)),
    "basis_values": lambda bad: spline_fn.basis_values("c", (bad, 0.5, 0.5)),
    "value_at_bary": lambda bad: spline_fn.face_forms(FLOAT_SPLINE).value_at_bary((0.5, bad, 0.5)),
    "eval_many": lambda bad: spline_fn.eval_many(FLOAT_SPLINE, [(0.2, 0.3, 0.5), (0.5, 0.5, bad)]),
    "eval_simplex": lambda bad: simplex_spline.eval_simplex(FLOAT_FRAME, K, (bad, 0.2)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_point_raises_outside_domain(name, bad):
    """A NaN or infinite coordinate is no point of the triangle: no silent
    NaN value, no bare ValueError or OverflowError from Fraction."""
    with pytest.raises(OutsideDomain):
        NON_FINITE_CALLS[name](bad)


def test_locate_face_bary_puts_nan_in_no_face():
    assert geometry.locate_face_bary(math.nan, 0.5, 0.5) is None
