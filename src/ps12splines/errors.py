"""Exception types raised across the library."""


class PS12Error(Exception):
    """Base class for all library errors."""


class DegenerateTriangle(PS12Error, ValueError):
    """The three macrotriangle vertices are collinear."""


class TooFewKnots(PS12Error, ValueError):
    """A simplex spline needs at least three knots counting multiplicity."""


class InvalidDirection(PS12Error, ValueError):
    """Directional coordinates do not sum to zero or violate the knot support."""


class SingularSystem(PS12Error, ValueError):
    """An exact linear system has no unique solution."""


class UnknownBasis(PS12Error, KeyError):
    """Basis id outside a..f."""


class UnsupportedBasis(PS12Error, ValueError):
    """Operation only defined for bases with stored auxiliary data."""


class OutsideDomain(PS12Error, ValueError):
    """Evaluation point lies outside the closed macrotriangle."""


class BoundViolated(PS12Error, RuntimeError):
    """A proven a-priori bound failed; signals an implementation bug."""


class SymmetryViolated(PS12Error, RuntimeError):
    """Functional values do not transform under S3 as the symmetry requires;
    signals an implementation bug."""


class DimensionMismatch(PS12Error, ValueError):
    """Input data length does not match the expected dimension."""


class NonConformingMesh(PS12Error, ValueError):
    """Triangles that do not meet edge to edge: a bad index triple, or two triangles on
    one side of a shared edge (so also three triangles on one edge)."""


class UnknownTable(PS12Error, KeyError):
    """Requested table name is not one of the exported tables."""


class ParseError(PS12Error, ValueError):
    """Malformed input file."""


class DomainError(PS12Error, ValueError):
    """Arguments outside the mathematical domain of a formula."""
