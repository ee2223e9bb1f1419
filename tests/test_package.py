"""The package's public surface: names read from their modules on first use."""

import subprocess
import sys
from importlib import import_module

import pytest

import ps12splines

#: The names the package exports, by module.
EXPORTS = {
    "errors": (
        "BoundViolated", "DegenerateTriangle", "DimensionMismatch", "DomainError",
        "InvalidDirection", "NonConformingMesh", "OutsideDomain",
        "ParseError", "PS12Error", "SingularSystem", "SymmetryViolated", "TooFewKnots",
        "UnknownBasis", "UnknownTable", "UnsupportedBasis",
    ),
    "geometry": (
        "FACES", "PS12Frame", "Point2", "from_bary", "locate_face", "make_frame",
        "reference_frame", "s3_vertex_permutation", "to_bary",
    ),
    "simplex_spline": (
        "derivative", "eval_simplex", "integral", "knots", "per_face_bernstein",
        "smoothness_order",
    ),
    "dual_functionals": (
        "Functional", "apply", "build_lambda", "dim_global", "dim_split_space",
    ),
    "basis_search": (
        "CandidateBasis", "S3Class", "SearchReport", "compute_dual_polys", "compute_weights",
        "enumerate_admissible", "enumerate_candidates", "filter_pipeline",
        "split_linear_factors",
    ),
    "marsden_catalog": (
        "BASIS_IDS", "BasisSpec", "catalog", "marsden_eval", "quasi_interpolant_coeffs",
    ),
    "spline_fn": (
        "ControlMesh", "Spline", "basis_values", "collocation_at_domain_points",
        "control_distance_bound_check", "control_mesh", "eval_spline", "face_forms",
        "lagrange_interpolate",
    ),
    "assembly": (
        "GlobalSpline", "SmoothnessSystem", "Triangulation", "edge_restriction_tables",
        "hermite_interpolate", "hexagon_demo", "propagate", "smoothness_system",
        "triangulation", "verify_smoothness",
    ),
}


def test_every_export_is_its_modules_object():
    assert sorted(ps12splines.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        mod = import_module(f"ps12splines.{module}")
        for name in names:
            assert getattr(ps12splines, name) is getattr(mod, name), (module, name)
    from ps12splines import Spline, assembly
    assert Spline is import_module("ps12splines.spline_fn").Spline
    assert assembly is import_module("ps12splines.assembly")


def test_star_import_yields_the_exports_and_unknown_names_raise():
    namespace = {}
    exec("from ps12splines import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ps12splines.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        ps12splines.no_such_name
    with pytest.raises(ImportError):
        exec("from ps12splines import no_such_name", {})
    assert set(ps12splines.__all__) <= set(dir(ps12splines))


def test_importing_the_package_loads_no_module():
    code = ("import sys, ps12splines\n"
            "loaded = [m for m in sys.modules if m.startswith('ps12splines.')]\n"
            "assert not loaded, loaded\n"
            "ps12splines.eval_spline\n"
            "assert 'ps12splines.spline_fn' in sys.modules\n"
            "assert 'ps12splines.basis_search' not in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-1500:]
