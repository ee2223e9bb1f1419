"""The 39 dual functionals, collocation matrices, and dimension counts.

The functional set consists of, for each corner v, the ten derivative jets
eps_v D_x^i D_y^j with i + j <= 3, and for each macro edge the second cross
derivatives at the two quarterpoints plus the first cross derivative at the
midpoint.  Canonical ordering: corners v1, v2, v3 with jets sorted by
(i + j, then i descending), then edges e3 = [v1, v2], e1 = [v2, v3],
e2 = [v3, v1], each as (quarterpoint near the first corner, midpoint, far
quarterpoint).

Direction choices are not canonical in the mathematics (any independent pair
per corner, any non-tangent vector per edge); weights and dual polynomials do
not depend on them, since both are fixed by per-face identities alone (the
partition of unity and the Marsden identity).  The choice made here takes
x_v, y_v toward the other two corners and u_e from the edge midpoint toward
the opposite corner.

Each functional is one Bernstein row of simplex_spline.functional_row,
built once per frame as integers over one denominator; its value on Q[K]
is that row's integer dot product with Q[K]'s integer table on the located
face, made a Fraction once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError
from .geometry import PS12Frame, Point2, direction_coords, reference_frame, to_bary
from .linalg import rank as matrix_rank
from .rational import is_exact
from .simplex_spline import FaceForms, _quintic_ordinates, functional_row, knots

#: Vertex jet orders in canonical sequence.
JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3))

#: Edge order and their (first corner, opposite corner) pairs, 1-based.
EDGE_SEQUENCE = (("e3", 1, 2, 3), ("e1", 2, 3, 1), ("e2", 3, 1, 2))


@dataclass(frozen=True)
class Functional:
    """One element of the dual set: a point and derivative directions."""

    kind: str                 # 'vertex-jet' | 'edge-quarterpoint-2nd' | 'edge-midpoint-1st'
    point: Point2
    directions: tuple         # direction vectors, one per derivative order
    site: tuple               # ('v', corner, i, j) or ('e', name, slot)

    @property
    def order(self) -> int:
        return len(self.directions)


def _vec(a: Point2, b: Point2) -> Point2:
    return Point2(a.x - b.x, a.y - b.y)


def build_lambda(frame: PS12Frame) -> list:
    """The 39 functionals on a frame, in canonical order."""
    v = frame.v
    out = []
    for corner in (1, 2, 3):
        nxt = corner % 3 + 1
        prv = (corner + 1) % 3 + 1
        x = _vec(v[nxt - 1], v[corner - 1])
        y = _vec(v[prv - 1], v[corner - 1])
        for (i, j) in JET_ORDERS:
            out.append(Functional(
                kind="vertex-jet",
                point=v[corner - 1],
                directions=(x,) * i + (y,) * j,
                site=("v", corner, i, j)))
    for name, a, b, opp in EDGE_SEQUENCE:
        pa, pb, po = v[a - 1], v[b - 1], v[opp - 1]
        mid = Point2((pa.x + pb.x) / 2, (pa.y + pb.y) / 2)
        q1 = Point2((3 * pa.x + pb.x) / 4, (3 * pa.y + pb.y) / 4)
        q2 = Point2((pa.x + 3 * pb.x) / 4, (pa.y + 3 * pb.y) / 4)
        u = _vec(po, mid)
        out.append(Functional("edge-quarterpoint-2nd", q1, (u, u), ("e", name, "q1")))
        out.append(Functional("edge-midpoint-1st", mid, (u,), ("e", name, "m")))
        out.append(Functional("edge-quarterpoint-2nd", q2, (u, u), ("e", name, "q2")))
    return out


def apply(lam: Functional, f: FaceForms):
    """Exact value of the functional on a piecewise polynomial.

    Derivatives at boundary points are taken one-sided from inside the
    macrotriangle, on the face the half-open convention assigns to the point.
    For inputs smooth enough at the point (all quintics of class C^3 are) the
    choice of adjacent face is immaterial.  Raises OutsideDomain when the
    functional's point lies outside the macrotriangle.
    """
    return f.value_at_bary(to_bary(f.frame, lam.point), lam.directions)


# ---------------------------------------------------------------------------
# Collocation tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def lambda_vector(K: tuple) -> tuple:
    """The 39 canonical functional values of Q[K] (frame independent)."""
    return _functional_values(_reference_rows(), K)


def _functional_rows(frame: PS12Frame) -> tuple:
    """(face, D, Bernstein row) of each functional on a frame, in canonical
    order: its value on a quintic is the row's dot product with the
    quintic's table on that face, over D."""
    corners = frame.v[:3]
    return tuple(functional_row(to_bary(frame, lam.point),
                                [direction_coords(corners, u) for u in lam.directions])
                 for lam in build_lambda(frame))


@lru_cache(maxsize=1)
def _reference_rows() -> tuple:
    return _functional_rows(reference_frame())


def _functional_values(rows, K: tuple) -> tuple:
    """The functional values of the quintic Q[K] from exact rows: each
    integer row times Q[K]'s integer table on its face, one Fraction each."""
    den, faces = _quintic_ordinates(K)
    return tuple(Fraction(sum(map(mul, row, faces[fi - 1])), rden * den) if faces[fi - 1]
                 else Fraction(0) for fi, rden, row in rows)


@dataclass(frozen=True)
class CollocationMatrix:
    """Exact matrix entries[i][j] = lambda_j(Q_i) for a candidate list."""

    entries: tuple
    rank: int


def collocation(frame: PS12Frame, candidates) -> CollocationMatrix:
    """Collocation matrix of candidate splines against the canonical
    functionals, with its exact rank (fraction-free elimination)."""
    if not is_exact([c for p in frame.v[:3] for c in p]):
        raise DomainError("the collocation matrix is exact: it needs an exact frame")
    if frame.v == reference_frame().v:
        rows = [list(lambda_vector(knots(K))) for K in candidates]
    else:
        lam_rows = _functional_rows(frame)
        rows = [list(_functional_values(lam_rows, K)) for K in candidates]
    return CollocationMatrix(tuple(tuple(r) for r in rows), matrix_rank(rows))


# ---------------------------------------------------------------------------
# Dimension formulas
# ---------------------------------------------------------------------------

def dim_split_space(r: int, d: int) -> int:
    """Dimension of the C^r degree-d spline space on the 12-split."""
    if d < 0 or r < -1 or r > d:
        raise DomainError(f"need d >= 0 and d >= r >= -1, got r={r}, d={d}")
    total = Fraction((r + 1) * (r + 2), 2)
    total += Fraction(9 * (d - r) * (d - r + 1), 2)
    total += Fraction(3 * (d - 2 * r - 1) * max(d - 2 * r, 0), 2)
    total += sum(max(r - 2 * j + 1, 0) for j in range(1, d - r + 1))
    assert total.denominator == 1
    return int(total)


def dim_global(n_vertices: int, n_edges: int) -> int:
    """Dimension of the globally C^2, vertex/macro-C^3 quintic space on the
    12-split refinement of a triangulation: 10|V| + 3|E|."""
    if n_vertices < 3 or n_edges < 3:
        raise DomainError("a triangulation needs at least 3 vertices and 3 edges")
    return 10 * n_vertices + 3 * n_edges
