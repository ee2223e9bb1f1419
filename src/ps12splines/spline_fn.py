"""Splines as coefficient vectors in one of the six bases.

A spline is f = sum_i c_i S_i with S_i = w_i Q_i the scaled basis functions.
Every value comes from the cached per-face tables of the S_i: basis_values
multiplies them by a located Bernstein row, face_forms contracts them with
the coefficients.  Values are exact Fractions when coefficients, frame and
points are exact (rational.is_exact), else a numpy path on float copies of
the tables, the package's only numpy user: exact work never imports it.
The domain-point collocation matrix has rows summing to one, and its exact
inverse bounds the basis condition number in the max norm.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: the float path imports numpy when it runs
    import numpy as np

from .errors import BoundViolated, DimensionMismatch, UnsupportedBasis
from .geometry import (
    PS12Frame,
    Point2,
    from_bary,
    s3_apply_bary,
    S3_ELEMENTS,
    to_bary,
)
from .linalg import inf_norm, inverse, mat_vec
from .marsden_catalog import BASIS_IDS, catalog
from .rational import is_exact
from .simplex_spline import FaceForms, _face_ordinates, locate_row


@dataclass(frozen=True)
class Spline:
    """Coefficient vector in a chosen basis over a frame."""

    frame: PS12Frame
    basis: str
    coeffs: tuple

    def __post_init__(self):
        if self.basis not in BASIS_IDS:
            raise UnsupportedBasis(f"basis {self.basis!r} not in a..f")
        if len(self.coeffs) != 39:
            raise DimensionMismatch(f"need 39 coefficients, got {len(self.coeffs)}")

    def __call__(self, p):
        return eval_spline(self, p)

    @property
    def exact(self) -> bool:
        """True when the coefficients and the frame corners are exact."""
        return is_exact(self.coeffs) and is_exact([c for p in self.frame.v[:3] for c in p])


def _scaled(basis_id: str, div) -> tuple:
    """12 x 21 x 39 nested tuples of div(p * n, q), where S_i's ordinates
    are Q_i's integer ordinates n times p / q = w_i / den_i.  int/int true
    division rounds correctly, so it gives the bits of float(Fraction)."""
    parts = []
    for el in catalog(basis_id).elements:
        den, faces = _face_ordinates(el.multiset)
        scale = el.weight / den
        parts.append((scale.numerator, scale.denominator, [f or (0,) * 21 for f in faces]))
    return tuple(tuple(tuple(div(p * t[fi][s], q) for p, q, t in parts) for s in range(21))
                 for fi in range(12))


@lru_cache(maxsize=None)
def scaled_basis_tables(basis_id: str) -> tuple:
    """Per-face ordinate tables of the scaled functions S_i = w_i Q_i.

    Returns a 12 x 21 x 39 nested tuple of Fractions (frame independent).
    """
    return _scaled(basis_id, Fraction)


@lru_cache(maxsize=None)
def _scaled_basis_arrays(basis_id: str) -> np.ndarray:
    import numpy as np
    return np.array(_scaled(basis_id, operator.truediv), dtype=float)  # (12, 21, 39)


def basis_values(basis_id: str, beta):
    """The 39 values S_i at macro-barycentrics beta: the located Bernstein
    row times the scaled table of its face.

    Exact (a tuple of Fractions) for exact beta; otherwise a float array,
    with tiny negative roundoff in beta snapped onto the triangle.  Raises
    OutsideDomain for points outside the closed macrotriangle.
    """
    if not is_exact(beta):
        fi, row = locate_row(_clamp_bary(tuple(float(b) for b in beta)))
        return row @ _scaled_basis_arrays(basis_id)[fi - 1]
    fi, row = locate_row(beta)
    vals = [Fraction(0)] * 39
    for r, tj in zip(row, scaled_basis_tables(basis_id)[fi - 1]):
        if r:
            for i, t in enumerate(tj):
                if t:
                    vals[i] += r * t
    return tuple(vals)


def eval_spline(s: Spline, p) -> object:
    """Value of the spline at a point of its frame.

    Exact (Fraction) when the coefficients and barycentric coordinates are
    exact, double precision otherwise.  Raises OutsideDomain for points
    outside the closed macrotriangle.
    """
    beta = to_bary(s.frame, Point2(*p))
    if is_exact(beta) and is_exact(s.coeffs):
        return sum((v * c for v, c in zip(basis_values(s.basis, beta), s.coeffs) if v),
                   Fraction(0))
    return float(basis_values(s.basis, tuple(float(b) for b in beta)) @ _float_coeffs(s))


def _clamp_bary(beta, tol=1e-9):
    """Snap float barycentrics with tiny negative parts onto the closed
    triangle; genuine outside points stay outside."""
    if min(beta) >= 0:
        return beta
    if min(beta) < -tol:
        return beta
    b = [max(x, 0.0) for x in beta]
    s = sum(b)
    return tuple(x / s for x in b)


def _float_coeffs(s: Spline) -> np.ndarray:
    import numpy as np
    return np.array([float(c) for c in s.coeffs])


def eval_many(s: Spline, barys: np.ndarray) -> np.ndarray:
    """Float values at an array of barycentric points (n x 3), each equal to
    float eval_spline at the same barycentrics."""
    import numpy as np
    coeffs = _float_coeffs(s)
    return np.array([basis_values(s.basis, b) @ coeffs for b in barys], dtype=float)


def face_forms(s: Spline) -> FaceForms:
    """The spline as one quintic Bernstein form per face: the scaled tables
    contracted with the coefficients.

    Exact when the coefficients and the frame are; otherwise float ordinates.
    """
    # an exact and a float spline can compare equal: the layer joins the key
    return _face_forms(s, s.exact)


@lru_cache(maxsize=64)
def _face_forms(s: Spline, exact: bool) -> FaceForms:
    if exact:
        ords = tuple(tuple(sum((t * c for t, c in zip(tj, s.coeffs) if t), Fraction(0))
                           for tj in face)
                     for face in scaled_basis_tables(s.basis))
    else:
        ords = tuple(tuple(row) for row in _scaled_basis_arrays(s.basis) @ _float_coeffs(s))
    return FaceForms(s.frame, 5, ords)


# ---------------------------------------------------------------------------
# Domain-point collocation and interpolation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def collocation_at_domain_points(basis_id: str):
    """(M, M^-1, K): exact collocation matrix M[i][j] = S_j(domain point i),
    its exact inverse, and the max-norm condition bound K = ||M^-1||_inf.

    Rows of M sum to one, so ||M||_inf = 1 and K is the condition number.
    """
    spec = catalog(basis_id)
    rows = [basis_values(basis_id, el.domain_point) for el in spec.elements]
    minv = inverse(rows)
    return tuple(tuple(r) for r in rows), tuple(tuple(r) for r in minv), inf_norm(minv)


def lagrange_interpolate(basis_id: str, frame: PS12Frame, values) -> Spline:
    """The unique spline matching the 39 values at the domain points."""
    values = list(values)
    if len(values) != 39:
        raise DimensionMismatch(f"need 39 values, got {len(values)}")
    _, minv, _ = collocation_at_domain_points(basis_id)
    coeffs = mat_vec([list(r) for r in minv], values)
    return Spline(frame, basis_id, tuple(coeffs))


# ---------------------------------------------------------------------------
# Control mesh
# ---------------------------------------------------------------------------

#: Edge orbit representatives of the basis-c control net, as unordered pairs
#: of exact domain points.  Completion under the symmetry action yields the
#: 81-edge hybrid mesh (boundary chains of 8 points per macro edge, an inner
#: ring, corner chords, spokes, and the central hexagon).
_F = Fraction
_C_EDGE_SEEDS = (
    ((_F(1), _F(0), _F(0)), (_F(9, 10), _F(1, 10), _F(0))),          # corner - boundary
    ((_F(9, 10), _F(1, 10), _F(0)), (_F(4, 5), _F(1, 5), _F(0))),    # boundary chain
    ((_F(4, 5), _F(1, 5), _F(0)), (_F(3, 5), _F(2, 5), _F(0))),      # boundary chain
    ((_F(3, 5), _F(2, 5), _F(0)), (_F(2, 5), _F(3, 5), _F(0))),      # boundary chain, middle
    ((_F(1), _F(0), _F(0)), (_F(4, 5), _F(1, 10), _F(1, 10))),       # corner spoke
    ((_F(9, 10), _F(1, 10), _F(0)), (_F(4, 5), _F(1, 10), _F(1, 10))),
    ((_F(4, 5), _F(1, 5), _F(0)), (_F(4, 5), _F(1, 10), _F(1, 10))),
    ((_F(3, 5), _F(2, 5), _F(0)), (_F(3, 5), _F(3, 10), _F(1, 10))),
    ((_F(3, 5), _F(2, 5), _F(0)), (_F(7, 15), _F(7, 15), _F(1, 15))),
    ((_F(4, 5), _F(1, 10), _F(1, 10)), (_F(3, 5), _F(3, 10), _F(1, 10))),   # ring
    ((_F(3, 5), _F(3, 10), _F(1, 10)), (_F(7, 15), _F(7, 15), _F(1, 15))),  # ring
    ((_F(3, 5), _F(3, 10), _F(1, 10)), (_F(3, 5), _F(1, 10), _F(3, 10))),   # corner chord
    ((_F(3, 5), _F(3, 10), _F(1, 10)), (_F(7, 15), _F(11, 30), _F(1, 6))),  # ring -> hexagon
    ((_F(7, 15), _F(7, 15), _F(1, 15)), (_F(7, 15), _F(11, 30), _F(1, 6))),
    ((_F(11, 30), _F(7, 15), _F(1, 6)), (_F(7, 15), _F(11, 30), _F(1, 6))), # hexagon
    ((_F(7, 15), _F(11, 30), _F(1, 6)), (_F(7, 15), _F(1, 6), _F(11, 30))), # hexagon
)


@lru_cache(maxsize=1)
def control_mesh_edges() -> tuple:
    """Index pairs (into the basis-c element order) of the control net."""
    spec = catalog("c")
    index = {el.domain_point: i for i, el in enumerate(spec.elements)}
    edges = set()
    for pa, pb in _C_EDGE_SEEDS:
        for sigma in S3_ELEMENTS:
            qa, qb = s3_apply_bary(sigma, pa), s3_apply_bary(sigma, pb)
            edges.add(tuple(sorted((index[qa], index[qb]))))
    return tuple(sorted(edges))


@dataclass(frozen=True)
class ControlMesh:
    """Control points (domain point, coefficient) plus static connectivity."""

    points: tuple   # of (Point2, coefficient)
    edges: tuple


def control_mesh(s: Spline) -> ControlMesh:
    """The control net of a basis-c spline.

    Raises UnsupportedBasis for the other bases (no stored connectivity).
    """
    if s.basis != "c":
        raise UnsupportedBasis(f"control net connectivity is stored for basis c only")
    spec = catalog("c")
    pts = tuple((from_bary(s.frame, el.domain_point), c)
                for el, c in zip(spec.elements, s.coeffs))
    return ControlMesh(points=pts, edges=control_mesh_edges())


# ---------------------------------------------------------------------------
# Distance between coefficients and spline values
# ---------------------------------------------------------------------------

def longest_edge_sq(frame: PS12Frame):
    out = None
    for a, b in ((0, 1), (1, 2), (0, 2)):
        pa, pb = frame.v[a], frame.v[b]
        d = (pa.x - pb.x) ** 2 + (pa.y - pb.y) ** 2
        out = d if out is None or d > out else out
    return out


def control_distance_bound_check(s: Spline, hessian_bound) -> dict:
    """Check |c_i - f(domain point i)| <= 2 K h^2 * hessian_bound for all i.

    hessian_bound must dominate the max-norm of the Hessian of the spline
    over the triangle (caller-supplied; exact for polynomial test data).
    Returns a report with the largest gap and the bound; raises
    BoundViolated when the inequality fails, which would indicate a bug.
    """
    _, _, cond = collocation_at_domain_points(s.basis)
    spec = catalog(s.basis)
    h2 = longest_edge_sq(s.frame)
    bound = 2 * cond * h2 * hessian_bound
    gaps = []
    for el, c in zip(spec.elements, s.coeffs):
        val = eval_spline(s, from_bary(s.frame, el.domain_point))
        gaps.append(abs(c - val))
    worst = max(gaps)
    if worst > bound:
        raise BoundViolated(f"max gap {worst} exceeds bound {bound}")
    return {"max_gap": worst, "bound": bound, "gaps": gaps}
