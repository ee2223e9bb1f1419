"""The 39 dual functionals, their lambda-rows, and dimension counts.

The functional set consists of, for each corner v, the ten derivative jets
eps_v D_x^i D_y^j with i + j <= 3, and for each macro edge the second cross
derivatives at the two quarterpoints plus the first cross derivative at the
midpoint.  Canonical ordering: corners v1, v2, v3 with jets sorted by
(i + j, then i descending), then edges e3 = [v1, v2], e1 = [v2, v3],
e2 = [v3, v1], each as (quarterpoint near the first corner, midpoint, far
quarterpoint).

The functionals are affine invariant, so FUNCTIONALS holds them once, frame
free: points in macro-barycentrics, directions by name in DIRECTIONS, each
a (head, tail) pair of macro-barycentric points.  Corner c takes x_c toward
the next corner and y_c toward the previous one, edge e takes u_e from its
midpoint toward the opposite corner.  Any independent pair per corner and
any non-tangent vector per edge would do: weights and dual polynomials are
fixed by per-face identities alone (the partition of unity and the Marsden
identity).  The lambda-rows (each functional one integer row of
simplex_spline.functional_row, at the point and along the directions as
integers over one denominator), the search's Marsden right-hand side and
Hermite assembly read the table; build_lambda is its Cartesian view, which
apply reads at geometry._bary's integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError
from .geometry import (EDGES, VERTEX_BARY, Bary3, PS12Frame, Point2, _as_bary, _bary, _frame,
                       bary_image)
from .simplex_spline import FaceForms, _quintic_ordinates, functional_row

#: Vertex jet orders in canonical sequence.
JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3))

#: The nine directions by name, each as (head, tail): ("x", c) and ("y", c)
#: from corner c toward the next and the previous corner, ("u", e) from
#: macro edge e's midpoint toward the opposite corner, 6 - a - b.
DIRECTIONS = {
    **{(axis, c): (VERTEX_BARY[(c + step) % 3], VERTEX_BARY[c - 1])
       for c in (1, 2, 3) for axis, step in (("x", 0), ("y", 1))},
    **{("u", name): (VERTEX_BARY[5 - a - b], VERTEX_BARY[m - 1])
       for name, (a, m, b) in EDGES.items()},
}


def bary_direction(name) -> Bary3:
    """The macro-directional triple of a named direction: head minus tail."""
    head, tail = DIRECTIONS[name]
    return tuple(h - t for h, t in zip(head, tail))


def direction_vectors(corners) -> dict:
    """Each named direction as a Cartesian vector on the triangle with the
    given corners: the image of its head minus that of its tail, where a
    corner is read as it is (bary_image would divide it by 1)."""
    out = {}
    for name, ends in DIRECTIONS.items():
        h, t = (corners[b.index(1)] if 1 in b else bary_image(corners, b) for b in ends)
        out[name] = Point2(h.x - t.x, h.y - t.y)
    return out


@dataclass(frozen=True)
class Functional:
    """One element of the dual set: a point and derivative directions, in
    FUNCTIONALS a macro-barycentric point and direction names, from
    build_lambda a Cartesian point and vectors."""

    point: object
    directions: tuple         # one per derivative order
    site: tuple               # ('v', corner, i, j) or ('e', name, slot)

    @property
    def order(self) -> int:
        return len(self.directions)


def _table() -> tuple:
    out = [Functional(VERTEX_BARY[c - 1], (("x", c),) * i + (("y", c),) * j, ("v", c, i, j))
           for c in (1, 2, 3) for i, j in JET_ORDERS]
    for name, (a, m, b) in EDGES.items():
        pa, pb, u = VERTEX_BARY[a - 1], VERTEX_BARY[b - 1], ("u", name)
        q1, q2 = (tuple((3 * x + y) / 4 for x, y in zip(p, q)) for p, q in ((pa, pb), (pb, pa)))
        out += [Functional(q1, (u, u), ("e", name, "q1")),
                Functional(VERTEX_BARY[m - 1], (u,), ("e", name, "m")),
                Functional(q2, (u, u), ("e", name, "q2"))]
    return tuple(out)


#: The 39 functionals in canonical order, frame free.
FUNCTIONALS = _table()


# tests/test_acceptance.py calls this (and apply): the Hermite nodal criterion.
def build_lambda(frame: PS12Frame) -> list:
    """The 39 functionals on a frame, in canonical order: FUNCTIONALS with
    points and directions mapped onto the frame's corners."""
    corners = _frame(frame).corners
    vectors = direction_vectors(corners)
    return [Functional(bary_image(corners, f.point), tuple(vectors[n] for n in f.directions),
                       f.site) for f in FUNCTIONALS]


def apply(lam: Functional, f: FaceForms):
    """Exact value of the functional on a piecewise polynomial: FaceForms.value_at_bary at
    its point's integer barycentrics (geometry._bary), so one-sided on the face the half-open
    convention assigns to the point, which C^3 quintics do not see; OutsideDomain outside."""
    return f._value(*_bary(f.frame, lam.point), lam.directions)


# ---------------------------------------------------------------------------
# Collocation tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def lambda_vector(K: tuple) -> tuple:
    """The 39 canonical functional values of Q[K] (frame independent): each
    integer row of _reference_rows times Q[K]'s integer table on its face,
    one Fraction each."""
    den, faces = _quintic_ordinates(K)
    return tuple(Fraction(sum(map(mul, row, faces[fi - 1])), rden * den) if faces[fi - 1]
                 else Fraction(0) for fi, rden, row in _reference_rows())


@lru_cache(maxsize=1)
def _reference_rows() -> tuple:
    """(face, D, Bernstein row) of each functional, in canonical order: its
    value on a quintic is the row's dot product with the quintic's table on
    that face, over D."""
    return tuple(functional_row(*_as_bary(f.point),
                                [_as_bary(bary_direction(n)) for n in f.directions])
                 for f in FUNCTIONALS)


# ---------------------------------------------------------------------------
# Dimension formulas
# ---------------------------------------------------------------------------

def dim_split_space(r: int, d: int) -> int:
    """Dimension of the C^r degree-d spline space on the 12-split, for ints d >= r >= -1, d >= 0."""
    if not (type(r) is type(d) is int and d >= 0 and -1 <= r <= d):
        raise DomainError(f"need ints d >= 0 and d >= r >= -1, got r={r!r}, d={d!r}")
    total = Fraction((r + 1) * (r + 2), 2)
    total += Fraction(9 * (d - r) * (d - r + 1), 2)
    total += Fraction(3 * (d - 2 * r - 1) * max(d - 2 * r, 0), 2)
    total += sum(max(r - 2 * j + 1, 0) for j in range(1, d - r + 1))
    assert total.denominator == 1
    return int(total)


# No caller in src/ yet: kept for a certified check that Hermite assembly spans this space.
def dim_global(n_vertices: int, n_edges: int) -> int:
    """Dimension of the globally C^2, vertex/macro-C^3 quintic space on the
    12-split refinement of a triangulation: 10|V| + 3|E|."""
    if n_vertices < 3 or n_edges < 3:
        raise DomainError("a triangulation needs at least 3 vertices and 3 edges")
    return 10 * n_vertices + 3 * n_edges
