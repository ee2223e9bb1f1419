"""Bad input raises the library's typed errors, not bare ValueError."""

import math
import sys
import warnings
from fractions import Fraction as F

import pytest

import knot_oracles
from tripoly import TriPoly
from ps12splines import (assembly, basis_search, bspline1d, dual_functionals, geometry,
                         marsden_catalog, serialize, simplex_spline, spline_fn)
from ps12splines.basis_search import CandidateBasis
from ps12splines.errors import (DegenerateTriangle, DimensionMismatch, DomainError,
                                InvalidDirection, NonConformingMesh,
                                OutsideDomain, PS12Error, TooFewKnots, UnsupportedBasis)

K = simplex_spline.knots("141110")
C_MULTISETS = marsden_catalog.catalog("c").multisets
#: Two exact triangles sharing the edge (1, 2), with Hermite data on them.
MESH = assembly.triangulation([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 3, 2)])
JETS = {v: (F(v),) * 10 for v in range(4)}
EDGE_DATA = {e: (F(1), F(2), F(3)) for e in MESH.edges()}


def _c_weights_with_one_class_b_weight_changed():
    """Basis c's weights, with a non-representative member of class b
    given 7 times its weight."""
    spec = marsden_catalog.catalog("c")
    rep = basis_search.CLASS_REPRESENTATIVES["b"]
    i = next(i for i, el in enumerate(spec.elements)
             if el.class_label == rep and el.multiset != simplex_spline.knots(rep))
    return spec.weights[:i] + (7 * spec.weights[i],) + spec.weights[i + 1:]


BAD_CALLS = {
    "knots": lambda: simplex_spline.knots((1, -1)),
    "knots float multiplicity": lambda: simplex_spline.knots([2.7, 1, 0, 1, 0, 1]),
    "knots bool multiplicity": lambda: simplex_spline.knots([True, 1, 0, 1, 0, 5]),
    "knots non-digit": lambda: simplex_spline.knots("6001a1"),
    "knots int spec": lambda: simplex_spline.knots(6),
    "knots None": lambda: simplex_spline.knots(None),
    "insert_knot zero": lambda: knot_oracles.insert_knot(K, 0),
    "insert_knot negative": lambda: knot_oracles.insert_knot(K, -1),
    "insert_knot eleven": lambda: knot_oracles.insert_knot(K, 11),
    "insert_knot float": lambda: knot_oracles.insert_knot(K, 2.0),
    "insert_knot bool": lambda: knot_oracles.insert_knot(K, True),
    "smoothness_order negative": lambda: simplex_spline.smoothness_order(K, -1),
    "smoothness_order six": lambda: simplex_spline.smoothness_order(K, 6),
    "edge_key name": lambda: knot_oracles.edge_key("e4"),
    "edge_key pair": lambda: knot_oracles.edge_key((1, 5)),
    "edge_key int": lambda: knot_oracles.edge_key(5),
    "restrict_to_edge None": lambda: knot_oracles.restrict_to_edge(
        geometry.reference_frame(), K, None),
    "smoothness_order vertices outside 1..10": lambda: simplex_spline.smoothness_order(K, (11, 12)),
    "bspline degree": lambda: bspline1d.UnivariateBSplineRef(6, 1),
    "bspline index": lambda: bspline1d.UnivariateBSplineRef(5, 9),
    "expand_window total": lambda: knot_oracles.expand_window(5, 1, 1, 1),
    "expand_window halves": lambda: knot_oracles.expand_window(2, 0, 3, 1),
    "expand_window negative count": lambda: knot_oracles.expand_window(5, -1, 2, 6),
    "expand_window str degree": lambda: knot_oracles.expand_window("5", 1, 2, 4),
    "bspline bool index": lambda: bspline1d.UnivariateBSplineRef(5, True),
    "bspline str degree": lambda: bspline1d.UnivariateBSplineRef("5", 1),
    "bspline_derivative negative order": lambda: knot_oracles.bspline_derivative(
        bspline1d.UnivariateBSplineRef(5, 3), 0, -1),
    "bernstein_expansion": lambda: marsden_catalog.bernstein_expansion(
        marsden_catalog.catalog("c"), 1, 1, 1),
    "bernstein_expansion float exponents": lambda: marsden_catalog.bernstein_expansion(
        marsden_catalog.catalog("c"), 2.5, 2.5, 0),
    "index_of multiset not in the basis": lambda: marsden_catalog.catalog("c").index_of("800000"),
    "barycentric_lattice": lambda: serialize.barycentric_lattice(0),
    "s3_vertex_permutation": lambda: geometry.s3_vertex_permutation((1, 1, 2)),
    "s3_vertex_permutation None": lambda: geometry.s3_vertex_permutation(None),
    "filter_pipeline stage": lambda: basis_search.filter_pipeline([], stage="bogus"),
    "filter_pipeline ints": lambda: basis_search.filter_pipeline(candidates=[1, 2]),
    "filter_pipeline multisets": lambda: basis_search.filter_pipeline(candidates=[C_MULTISETS]),
    "CandidateBasis unknown class": lambda: CandidateBasis(("a", "b", "e", "f"), ("z",)),
    "CandidateBasis repeated class": lambda: CandidateBasis(("a", "b", "e", "f"),
                                                            ("a", "g", "h", "i", "l")),
    "CandidateBasis 30 splines": lambda: CandidateBasis(("a", "b", "e", "f"), ("g", "h", "i")),
    "CandidateBasis unhashable label": lambda: CandidateBasis(("a", "b", "e", "f"), (["g"],)),
    "candidate_has_full_rank 38 splines": lambda: basis_search.candidate_has_full_rank(
        C_MULTISETS[1:]),
    "compute_weights None": lambda: basis_search.compute_weights(None),
    "compute_dual_polys 38 splines": lambda: basis_search.compute_dual_polys(C_MULTISETS[1:]),
    "domain_point zero weights": lambda: basis_search.domain_point(C_MULTISETS, [0] * 39),
    "domain_point weights differ within a class": lambda: basis_search.domain_point(
        C_MULTISETS, _c_weights_with_one_class_b_weight_changed()),
    "split_linear_factors int": lambda: basis_search.split_linear_factors(5),
    "split_linear_factors TriPoly": lambda: basis_search.split_linear_factors(
        TriPoly.linear((1, 0, 0)) ** 5),
    "split_linear_factors exponent pair": lambda: basis_search.split_linear_factors(
        {(5, 0): F(1)}),
    "split_linear_factors negative exponent": lambda: basis_search.split_linear_factors(
        {(6, -1, 0): F(1)}),
    "split_linear_factors float exponent": lambda: basis_search.split_linear_factors(
        {(5.0, 0, 0): F(1)}),
    "split_linear_factors float coefficient": lambda: basis_search.split_linear_factors(
        {(5, 0, 0): 0.5, (0, 5, 0): F(1)}),
    "control_distance_bound_check negative bound": lambda:
        spline_fn.control_distance_bound_check(FLOAT_SPLINE, -1),
    "control_distance_bound_check NaN bound": lambda:
        spline_fn.control_distance_bound_check(FLOAT_SPLINE, math.nan),
    "control_distance_bound_check str bound": lambda:
        spline_fn.control_distance_bound_check(FLOAT_SPLINE, "1"),
    "control_distance_bound_check None bound": lambda:
        spline_fn.control_distance_bound_check(FLOAT_SPLINE, None),
    "collocation float frame": lambda: dual_functionals.collocation(
        geometry.make_frame((0.3, -0.1), (2.7, 0.2), (0.1, 3.1)), [K]),
    "smoothness_system order four": lambda: assembly.smoothness_system(4, (F(1, 3),) * 3),
    "smoothness_system order negative": lambda: assembly.smoothness_system(-1, (F(1, 3),) * 3),
    "smoothness_system float order": lambda: assembly.smoothness_system(2.0, (F(1, 3),) * 3),
    "smoothness_system bool order": lambda: assembly.smoothness_system(True, (F(1, 3),) * 3),
    "smoothness_system NaN beta": lambda: assembly.smoothness_system(2, (math.nan, 0.5, 0.5)),
    "smoothness_system infinite beta": lambda: assembly.smoothness_system(
        2, (-math.inf, 0.5, 0.5)),
    "smoothness_system non-numeric beta": lambda: assembly.smoothness_system(
        2, ("1/3", "1/3", "1/3")),
    "propagate NaN coefficient": lambda: assembly.propagate(
        [0.5] * 38 + [math.nan], (-1.0, 1.0, 1.0)),
    "propagate infinite coefficient": lambda: assembly.propagate(
        [math.inf] + [0.5] * 38, (-1.0, 1.0, 1.0), order=1),
    "c3_residual NaN coefficients": lambda: assembly.c3_residual(
        [math.nan] * 39, (F(-1), F(1), F(1))),
    "smoothness_system None beta": lambda: assembly.smoothness_system(2, None),
    "smoothness_system int beta": lambda: assembly.smoothness_system(2, 5),
    "propagate None coefficients": lambda: assembly.propagate(None, (F(-1), F(1), F(1))),
    "c3_residual None coefficients": lambda: assembly.c3_residual(None, (F(-1), F(1), F(1))),
    "verify_smoothness order six": lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((F(0),) * 39,) * 2), (1, 2), 6),
    "verify_smoothness NaN coefficient": lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((0.5,) * 39, (math.nan,) + (0.5,) * 38)), (1, 2), 2),
    "Spline str coefficients": lambda: spline_fn.eval_spline(spline_fn.Spline(
        geometry.reference_frame(), "c", ("a",) * 39), (F(1, 3), F(1, 3))),
    "Spline None coefficients": lambda: spline_fn.Spline(
        geometry.reference_frame(), "c", (None,) * 39),
    "Spline None": lambda: spline_fn.Spline(geometry.reference_frame(), "c", None),
    "eval_spline NaN coefficient": lambda: spline_fn.eval_spline(spline_fn.Spline(
        FLOAT_FRAME, "c", (math.nan,) + (0.5,) * 38), (0.2, 0.3)),
    "eval_many infinite coefficient": lambda: spline_fn.eval_many(spline_fn.Spline(
        FLOAT_FRAME, "c", (0.5,) * 38 + (math.inf,)), [(0.2, 0.3, 0.5)]),
    "lagrange_interpolate None values": lambda: spline_fn.lagrange_interpolate(
        "c", geometry.reference_frame(), [None] * 39),
    "lagrange_interpolate NaN value": lambda: spline_fn.lagrange_interpolate(
        "c", geometry.reference_frame(), [math.nan] + [0.5] * 38),
    "make_frame three coordinates": lambda: geometry.make_frame((0, 0, 0), (1, 0), (0, 1)),
    "make_frame int corner": lambda: geometry.make_frame(0, (1, 0), (0, 1)),
    "triangulation str vertex": lambda: assembly.triangulation(
        [("a", "b"), (1, 0), (0, 1)], [(0, 1, 2)]),
    "triangulation three-coordinate vertex": lambda: assembly.triangulation(
        [(0, 0, 0), (1, 0), (0, 1)], [(0, 1, 2)]),
    "triangulation int vertex": lambda: assembly.triangulation([5, (1, 0), (0, 1)], [(0, 1, 2)]),
    "triangulation None vertex": lambda: assembly.triangulation(
        [None, (1, 0), (0, 1)], [(0, 1, 2)]),
    "verify_smoothness overflowing float coefficients": lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((1e306,) * 39, (0.5,) * 39)), (1, 2), 2),
    "to_bary three coordinates": lambda: geometry.to_bary(geometry.reference_frame(), (1, 2, 3)),
    "to_bary int point": lambda: geometry.to_bary(FLOAT_FRAME, 5),
    "to_bary None point": lambda: geometry.to_bary(FLOAT_FRAME, None),
    "to_bary str coordinates": lambda: geometry.to_bary(geometry.reference_frame(), ("0", "1")),
    "eval_spline None coordinate": lambda: spline_fn.eval_spline(FLOAT_SPLINE, (None, 0.3)),
    "locate_face three coordinates": lambda: geometry.locate_face(FLOAT_FRAME, (0.2, 0.3, 0.5)),
    "eval_spline three coordinates": lambda: spline_fn.eval_spline(FLOAT_SPLINE, (0.2, 0.3, 0.5)),
    "eval_spline one coordinate": lambda: spline_fn.eval_spline(FLOAT_SPLINE, (0.2,)),
    "eval_simplex three coordinates": lambda: simplex_spline.eval_simplex(
        geometry.reference_frame(), K, (F(1, 3),) * 3),
    "derivative three coordinates": lambda: simplex_spline.derivative(
        geometry.reference_frame(), K, (1, -1, 0))((1, 2, 3)),
    "from_bary str coordinates": lambda: geometry.from_bary(geometry.reference_frame(), ("a", "b", "c")),
    "from_bary None coordinate": lambda: geometry.from_bary(geometry.reference_frame(), (None, 1, 0)),
    "verify_smoothness str tol": lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((F(0),) * 39,) * 2), (1, 2), 2, tol="x"),
    "Triangulation.frame index past the triangles": lambda: MESH.frame(9),
    "Triangulation.frame negative index": lambda: MESH.frame(-1),
    "GlobalSpline.spline index past the triangles": lambda: assembly.GlobalSpline(
        MESH, ((F(0),) * 39,) * 2).spline(5),
    "dim_split_space str order": lambda: dual_functionals.dim_split_space("1", 5),
    "dim_split_space float order": lambda: dual_functionals.dim_split_space(1.5, 5),
    "dim_split_space bool degree": lambda: dual_functionals.dim_split_space(1, True),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_input_raises_typed_error(name):
    with pytest.raises(PS12Error) as info:
        BAD_CALLS[name]()
    assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)


BAD_LENGTHS = {
    "smoothness_system beta": lambda: assembly.smoothness_system(2, (F(1),)),
    "c3_residual coefficients": lambda: assembly.c3_residual([F(0)] * 10, (F(-1), F(1), F(1))),
    "marsden_eval c": lambda: marsden_catalog.marsden_eval(
        marsden_catalog.catalog("c"), (F(1, 3), F(1, 3)), (1, 1)),
    "propagate coefficients": lambda: assembly.propagate([F(0)] * 38, (F(-1), F(1), F(1))),
    "compute_dual_polys one weight": lambda: basis_search.compute_dual_polys(
        C_MULTISETS, weights=marsden_catalog.catalog("c").weights[:1]),
    "compute_dual_polys 40 weights": lambda: basis_search.compute_dual_polys(
        C_MULTISETS, weights=marsden_catalog.catalog("c").weights + (1,)),
    "GlobalSpline coefficient vectors": lambda: assembly.GlobalSpline(MESH, ((F(0),) * 39,)),
    "hermite_interpolate missing edge data": lambda: assembly.hermite_interpolate(
        MESH, JETS, {e: v for e, v in EDGE_DATA.items() if e != (1, 2)}),
    "hermite_interpolate jet length": lambda: assembly.hermite_interpolate(
        MESH, {**JETS, 3: (F(0),) * 9}, EDGE_DATA),
    "hermite_interpolate edge data length": lambda: assembly.hermite_interpolate(
        MESH, JETS, {**EDGE_DATA, (1, 2): (F(0),) * 4}),
    "Spline coefficients": lambda: spline_fn.Spline(FLOAT_FRAME, "c", (0.0,) * 38),
    "lagrange_interpolate values": lambda: spline_fn.lagrange_interpolate(
        "c", geometry.reference_frame(), [F(0)] * 40),
    "basis_values two coordinates": lambda: spline_fn.basis_values("c", (F(1, 2), F(1, 2))),
    "basis_values two float coordinates": lambda: spline_fn.basis_values("c", (0.5, 0.5)),
    "from_bary two coordinates": lambda: geometry.from_bary(geometry.reference_frame(), (1, 2)),
    "from_bary four coordinates": lambda: geometry.from_bary(FLOAT_FRAME, (0.25,) * 4),
    "from_bary int": lambda: geometry.from_bary(FLOAT_FRAME, 1),
}


@pytest.mark.parametrize("name", sorted(BAD_LENGTHS))
def test_bad_length_raises_dimension_mismatch(name):
    with pytest.raises(DimensionMismatch):
        BAD_LENGTHS[name]()


#: An exact spline on a clockwise frame (a negative doubled area).
CLOCKWISE_SPLINE = spline_fn.Spline(geometry.make_frame((0, 0), (0, 3), (3, 0)), "c", (F(1, 7),) * 39)

#: An exact spline whose coefficients no float holds.
HUGE_SPLINE = spline_fn.Spline(geometry.reference_frame(), "c", (10 ** 400,) * 39)


def _without_numpy(f, *args):
    """f(*args) with numpy unimportable, as where it is not installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "numpy", None)
        return f(*args)


#: Bad input with a typed error of its own, not a DomainError.
TYPED_ERRORS = {
    "Triangulation degenerate triangle": (DegenerateTriangle, lambda: assembly.triangulation(
        [(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])),
    "Triangulation NaN vertex": (DegenerateTriangle, lambda: assembly.triangulation(
        [(0.0, 0.0), (1.0, 0.0), (math.nan, 1.0)], [(0, 1, 2)])),
    "Triangulation edge of three triangles": (NonConformingMesh, lambda: assembly.triangulation(
        [(0, 0), (1, 0), (0, 1), (1, 1), (0, -1)], [(0, 1, 2), (0, 1, 3), (0, 1, 4)])),
    "verify_smoothness boundary edge": (NonConformingMesh, lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((F(0),) * 39,) * 2), (0, 1), 1)),
    "verify_smoothness int edge": (NonConformingMesh, lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((F(0),) * 39,) * 2), 5, 2)),
    "verify_smoothness edge with a str": (NonConformingMesh, lambda: assembly.verify_smoothness(
        assembly.GlobalSpline(MESH, ((F(0),) * 39,) * 2), (0, "a"), 2)),
    "triangulation int triangles": (NonConformingMesh, lambda: assembly.triangulation(
        [(0, 0), (1, 0), (0, 1)], 5)),
    "GlobalSpline.spline list index": (DomainError, lambda: assembly.GlobalSpline(
        MESH, ((F(0),) * 39,) * 2).spline([0])),
    "Triangulation list vertex index": (NonConformingMesh, lambda: assembly.Triangulation(
        MESH.vertices, (([0], 1, 2),))),
    "eval_spline exact point outside a clockwise frame": (OutsideDomain, lambda: spline_fn.eval_spline(
        CLOCKWISE_SPLINE, (F(5, 2), 2))),
    "Spline unknown basis": (UnsupportedBasis, lambda: spline_fn.Spline(
        FLOAT_FRAME, "g", (0.0,) * 39)),
    "restrict_to_edge two knots": (TooFewKnots, lambda: knot_oracles.restrict_to_edge(
        geometry.reference_frame(), simplex_spline.knots("11"), "e3")),
    "integral two knots": (TooFewKnots, lambda: simplex_spline.integral(
        geometry.reference_frame(), simplex_spline.knots("2"))),
    "functional_row roundoff with nothing to snap to": (OutsideDomain, lambda:
        simplex_spline.functional_row(None, (0.0, 0.0, -1e-10))),
    "basis_values roundoff with nothing to snap to": (OutsideDomain, lambda:
        spline_fn.basis_values("c", (-1e-10, -1e-10, -1e-10))),
    "float_value roundoff with nothing to snap to": (OutsideDomain, lambda:
        simplex_spline.float_value(FLOAT_SPLINE._float_forms.ords, (0.0, -1e-10, 0.0))),
    "value_at_bary three-coordinate direction": (DomainError, lambda: spline_fn.face_forms(
        FLOAT_SPLINE).value_at_bary((0.2, 0.3, 0.5), [(1.0, 0.0, 0.0)])),
    "value_at_bary direction not of numbers": (DomainError, lambda: spline_fn.face_forms(
        CLOCKWISE_SPLINE).value_at_bary((F(1, 3),) * 3, [(F(1), "0")])),
    "value_at_bary roundoff with nothing to snap to": (OutsideDomain, lambda:
        spline_fn.face_forms(FLOAT_SPLINE).value_at_bary((-1e-10, -1e-10, -1e-10))),
    "eval_many roundoff with nothing to snap to": (OutsideDomain, lambda: spline_fn.eval_many(
        FLOAT_SPLINE, [(0.2, 0.3, 0.5), (0.0, 0.0, -1e-10)])),
    "eval_spline float point, exact coefficients beyond the float range": (DomainError, lambda:
        spline_fn.eval_spline(HUGE_SPLINE, (0.3, 0.2))),
    "eval_many exact coefficients beyond the float range": (DomainError, lambda:
        spline_fn.eval_many(HUGE_SPLINE, [(0.2, 0.3, 0.5)])),
    "hermite_interpolate float coefficients beyond the float range": (DomainError, lambda:
        assembly.hermite_interpolate(MESH, {v: (1.7e308,) * 10 for v in range(4)},
                                     {e: (1.7e308,) * 3 for e in MESH.edges()})),
    "face_forms float frame, exact coefficients beyond the float range": (DomainError, lambda:
        spline_fn.face_forms(spline_fn.Spline(FLOAT_FRAME, "c", (10 ** 400,) * 39))),
    "Spline None frame": (DomainError, lambda: spline_fn.Spline(None, "c", (F(0),) * 39)),
    "lagrange_interpolate None frame": (DomainError, lambda: spline_fn.lagrange_interpolate(
        "c", None, [F(0)] * 39)),
    "derivative None frame": (DomainError, lambda: simplex_spline.derivative(
        None, K, (1, -1, 0), 1)),
    "to_bary None frame": (DomainError, lambda: geometry.to_bary(None, (0.2, 0.3))),
    "from_bary None frame": (DomainError, lambda: geometry.from_bary(None, (0.2, 0.3, 0.5))),
    "locate_face int frame": (DomainError, lambda: geometry.locate_face(5, (0.2, 0.3))),
    "integral None frame": (DomainError, lambda: simplex_spline.integral(None, K)),
    "build_lambda None frame": (DomainError, lambda: dual_functionals.build_lambda(None)),
    "collocation None frame": (DomainError, lambda: dual_functionals.collocation(None, [K])),
    "marsden_eval int frame": (DomainError, lambda: marsden_catalog.marsden_eval(
        marsden_catalog.catalog("c"), (F(1, 5), F(1, 3)), (1, 2, 3), 5)),
    "quasi_interpolant_coeffs int frame": (DomainError, lambda:
        marsden_catalog.quasi_interpolant_coeffs(marsden_catalog.catalog("c"), lambda x, y: x, 5)),
    "eval_many without numpy": (PS12Error, lambda: _without_numpy(
        spline_fn.eval_many, FLOAT_SPLINE, [(0.2, 0.3, 0.5)])),
}


@pytest.mark.parametrize("name", sorted(TYPED_ERRORS))
def test_bad_input_raises_its_typed_error(name):
    error, call = TYPED_ERRORS[name]
    with pytest.raises(error):
        call()


def test_exact_point_outside_a_clockwise_frame_names_its_barycentrics():
    """The integer barycentrics over a positive denominator are named as
    their values to six digits, signs as on a counterclockwise frame."""
    with pytest.raises(OutsideDomain, match=r"^point with barycentric coordinates "
                       r"\(-0\.5, 0\.666667, 0\.833333\) outside the macrotriangle$"):
        spline_fn.eval_spline(CLOCKWISE_SPLINE, (F(5, 2), 2))


@pytest.mark.parametrize("beta", [(0.0, 0.0, -1e-10), (-1e-10, -1e-10, -1e-10)])
def test_roundoff_with_nothing_to_snap_to_is_outside_without_a_warning(beta):
    """Coordinates within SNAP_TOL of 0 but none positive leave no point to
    snap to (their clamped sum is 0): every route names the point as given,
    with no ZeroDivisionError and no numpy warning on the way."""
    message = (f"point with barycentric coordinates ({', '.join(map(str, beta))}) "
               "outside the macrotriangle")
    forms = spline_fn.face_forms(FLOAT_SPLINE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: simplex_spline.functional_row(None, beta),
                     lambda: spline_fn.basis_values("c", beta),
                     lambda: simplex_spline.float_value(forms.ords, beta),
                     lambda: forms.value_at_bary(beta),
                     lambda: forms.value_at_bary(beta, [geometry.Point2(1.0, 0.0)])):
            with pytest.raises(OutsideDomain) as info:
                call()
            assert str(info.value) == message
        with pytest.raises(OutsideDomain, match="^1 points outside the macrotriangle$"):
            spline_fn.eval_many(FLOAT_SPLINE, [(0.2, 0.3, 0.5), beta])


def test_search_functions_read_a_candidate_and_its_multisets_alike():
    """One input rule: a CandidateBasis and the catalog's multisets of the
    same classes, in either order, give the same rank verdict, weights,
    domain points and dual polynomials, element by element."""
    cand = next(c for c in basis_search.enumerate_candidates()
                if c.labels == basis_search.BASIS_CLASS_CONTENT["c"])
    assert basis_search.candidate_has_full_rank(C_MULTISETS)
    assert basis_search.candidate_has_full_rank(cand)
    by_element = []
    for c, multisets in ((cand, cand.multisets), (C_MULTISETS, C_MULTISETS)):
        w = basis_search.compute_weights(c)
        by_element.append(dict(zip(multisets, zip(
            w, basis_search.domain_point(c, w), basis_search.compute_dual_polys(c, w)))))
    assert by_element[0] == by_element[1]


BAD_DIRECTIONS = {
    "four entries": (1, -1, 1, -1),
    "two entries": (1, -1),
    "nonzero sum": (1, 0, 0),
    "strings": ("1", "-1", "0"),
    "one string": "1-1",
    "None": None,
    "None entry": (1, None, -1),
    "NaN entry": (1.0, math.nan, -1.0),
    "infinite entries": (math.inf, -math.inf, 0.0),
}


@pytest.mark.parametrize("name", sorted(BAD_DIRECTIONS))
def test_bad_direction_raises_invalid_direction(name):
    """At every order, the plain value (order 0) included."""
    for order in (0, 1):
        with pytest.raises(InvalidDirection):
            simplex_spline.derivative(geometry.reference_frame(), K, BAD_DIRECTIONS[name], order)


@pytest.mark.parametrize("order", [-1, 6, 1.0, True, None])
def test_derivative_order_outside_0_to_degree_raises_invalid_direction(order):
    with pytest.raises(InvalidDirection):
        simplex_spline.derivative(geometry.reference_frame(), K, (1, -1, 0), order)


FLOAT_FRAME = geometry.make_frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
FLOAT_SPLINE = spline_fn.Spline(FLOAT_FRAME, "c", tuple(float(i) for i in range(39)))

NON_FINITE_CALLS = {
    "eval_spline x": lambda bad: spline_fn.eval_spline(FLOAT_SPLINE, (bad, 0.2)),
    "eval_spline y": lambda bad: spline_fn.eval_spline(FLOAT_SPLINE, (0.2, bad)),
    "basis_values": lambda bad: spline_fn.basis_values("c", (bad, 0.5, 0.5)),
    "value_at_bary": lambda bad: spline_fn.face_forms(FLOAT_SPLINE).value_at_bary((0.5, bad, 0.5)),
    "eval_many": lambda bad: spline_fn.eval_many(FLOAT_SPLINE, [(0.2, 0.3, 0.5), (0.5, 0.5, bad)]),
    "eval_simplex": lambda bad: simplex_spline.eval_simplex(FLOAT_FRAME, K, (bad, 0.2)),
    "bspline_derivative": lambda bad: knot_oracles.bspline_derivative(
        bspline1d.UnivariateBSplineRef(5, 3), bad),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_point_raises_outside_domain(name, bad):
    """A NaN or infinite coordinate is no point of the triangle: no silent
    NaN value, no bare ValueError or OverflowError from Fraction."""
    with pytest.raises(OutsideDomain):
        NON_FINITE_CALLS[name](bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("corner", range(3))
def test_non_finite_corner_raises_degenerate_triangle(corner, bad):
    """NaN != 0, so a NaN area passed the collinearity test; an infinite
    corner gives a NaN or infinite area."""
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    corners[corner] = (corners[corner][0], bad)
    with pytest.raises(DegenerateTriangle):
        geometry.make_frame(*corners)


def test_locate_face_bary_puts_nan_in_no_face():
    assert geometry.locate_face_bary(math.nan, 0.5, 0.5) is None
