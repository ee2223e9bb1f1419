"""Quintic simplex-spline bases on the Powell-Sabin 12-split.

The public surface re-exports the frame/geometry types, simplex-spline
operations, the dual functional machinery, the basis search pipeline, the
six-basis catalog, spline evaluation/interpolation, and multi-triangle
assembly.  All table-like data is exact (Fractions); sampling and export
work in double precision.
"""

from .errors import (
    BoundViolated,
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    InvalidDirection,
    InvalidWeights,
    NonConformingMesh,
    OutsideDomain,
    ParseError,
    PS12Error,
    SingularSystem,
    SymmetryViolated,
    TooFewKnots,
    UnknownBasis,
    UnknownTable,
    UnsupportedBasis,
)
from .geometry import (
    FACES,
    PS12Frame,
    Point2,
    from_bary,
    locate_face,
    make_frame,
    reference_frame,
    s3_vertex_permutation,
    to_bary,
)
from .simplex_spline import (
    EdgeRestriction,
    derivative,
    eval_simplex,
    insert_knot,
    integral,
    knots,
    per_face_bernstein,
    restrict_to_edge,
    smoothness_order,
)
from .dual_functionals import (
    Functional,
    apply,
    build_lambda,
    collocation,
    dim_global,
    dim_split_space,
)
from .basis_search import (
    CandidateBasis,
    S3Class,
    SearchReport,
    compute_dual_polys,
    compute_weights,
    enumerate_admissible,
    enumerate_candidates,
    filter_pipeline,
    split_linear_factors,
)
from .marsden_catalog import (
    BASIS_IDS,
    BasisSpec,
    bernstein_expansion,
    catalog,
    marsden_eval,
    quasi_interpolant_coeffs,
)
from .spline_fn import (
    ControlMesh,
    Spline,
    basis_values,
    collocation_at_domain_points,
    control_distance_bound_check,
    control_mesh,
    eval_spline,
    face_forms,
    lagrange_interpolate,
)
from .assembly import (
    GlobalSpline,
    NodalBasis,
    SmoothnessSystem,
    Triangulation,
    edge_restriction_tables,
    hermite_interpolate,
    hexagon_demo,
    nodal_basis,
    propagate,
    smoothness_system,
    triangulation,
    verify_smoothness,
)

__version__ = "0.1.0"
