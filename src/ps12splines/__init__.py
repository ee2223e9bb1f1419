"""Quintic simplex-spline bases on the Powell-Sabin 12-split.

The public surface re-exports the frame/geometry types, simplex-spline
operations, the dual functional machinery, the basis search pipeline, the
six-basis catalog, spline evaluation/interpolation, and multi-triangle
assembly.  All table-like data is exact (Fractions); sampling and export
work in double precision.

Importing the package loads none of its modules: each name below is read
from its module on first access (PEP 562), so a command or script loads
only the modules it uses.
"""

_EXPORTS = {
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

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
