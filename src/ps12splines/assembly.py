"""Smooth joins of basis-c splines across triangles.

Splines on two triangles sharing an edge meet with C^r smoothness exactly
when a block of linear relations ties the coefficients near the shared edge
together.  The relations are derived symbolically here from the restriction
tables of the basis, by one exact solve that matches the B-spline
coefficients of the cross-edge derivative restrictions of all four orders;
the order-3 block is overdetermined and leaves one relation among the
coefficients of a single triangle, so full C^3 across an edge constrains the
patch on its own.

The module also carries the Hermite nodal basis dual to the 39 canonical
functionals (the inverse of the basis-c collocation matrix), global
interpolation of vertex jets plus edge cross derivatives on a triangulation,
and a cross-edge smoothness checker.  Hermite interpolation reads each edge
through fixed exact rows, one path for both layers: int and Fraction input
gives Fractions (rational.is_exact), any other number double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    NonConformingMesh,
)
from .bspline1d import UnivariateBSplineRef, bspline_derivative
from .dual_functionals import EDGE_SEQUENCE, JET_ORDERS, build_lambda, lambda_vector
from .geometry import PS12Frame, Point2, make_frame, reference_frame, signed_area2
from .linalg import inverse, mat_vec, solve
from .marsden_catalog import catalog
from .polynomial import TriPoly
from .rational import is_exact
from .simplex_spline import _derivative_terms, restrict_to_edge
from .spline_fn import Spline, face_forms

#: Number of basis elements with nonzero derivative restrictions of orders
#: 0..3 on the edge [v1, v2] (in the canonical element order).
N_BLOCKS = (8, 15, 21, 25)


# ---------------------------------------------------------------------------
# Symbolic restriction tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def edge_restriction_tables() -> tuple:
    """D^k restrictions of the basis-c splines to the edge [v1, v2].

    Entry [i][k] is a dict {j: P} meaning D^k_u Q_i restricted to the edge
    equals sum_j P(a1, a2, a3) B_j^(5-k), with (a1, a2, a3) the directional
    coordinates of u and P homogeneous of degree k.  Rows i >= N_BLOCKS[k]
    are empty.
    """
    spec = catalog("c")
    frame = reference_frame()
    alpha = tuple(TriPoly.variable(v) for v in range(3))
    out = []
    for el in spec.elements:
        per_k = []
        for k in range(4):
            terms = _derivative_terms(el.multiset, alpha, k)
            row = {}
            for coef, m in terms:
                for c2, ref in restrict_to_edge(frame, m, "e3").terms:
                    if ref.degree != 5 - k:
                        raise AssertionError("restriction degree mismatch")
                    cur = row.get(ref.index, TriPoly.zero())
                    row[ref.index] = cur + coef * c2
            per_k.append({j: p for j, p in sorted(row.items()) if p})
        out.append(tuple(per_k))
    return tuple(out)


def restriction_normal_form(p: TriPoly) -> TriPoly:
    """Canonical representative of a restriction coefficient.

    Directional coordinates satisfy a1 + a2 + a3 = 0, so coefficients are
    only determined modulo that relation; substituting a1 = -(a2 + a3)
    picks a unique normal form for comparisons and serialization.
    """
    a2, a3 = TriPoly.variable(1), TriPoly.variable(2)
    return p.evaluate(-(a2 + a3), a2, a3)


# ---------------------------------------------------------------------------
# Smoothness relations
# ---------------------------------------------------------------------------

def _homogenize(poly: TriPoly, deg: int) -> TriPoly:
    """Unique homogeneous degree-deg form equal to poly when b1+b2+b3 = 1."""
    ones = TriPoly.linear((Fraction(1), Fraction(1), Fraction(1)))
    out = TriPoly.zero()
    for exp, coef in poly.terms.items():
        short = deg - sum(exp)
        if short < 0:
            raise AssertionError("coefficient degree exceeds the block order")
        out = out + TriPoly({exp: coef}) * ones**short
    return out


@lru_cache(maxsize=1)
def _smoothness_symbolic():
    """Relations expressing the 25 near-edge coefficients of the neighbour.

    Returns (relations, constraint): relations[i] (i < 25) is a dict
    {source index: TriPoly in (b1, b2, b3), homogeneous of the block order}
    with ctilde_i = sum_src poly(beta) * c_src, and constraint is the same
    kind of dict R with the order-3 compatibility condition R(c, beta) = 0.

    Equation (k, j) matches the j-th B-spline coefficient of the order-k
    cross-edge restriction on the two sides: the unknowns ctilde on the left,
    this patch's coefficients on the right as polynomials in b, one column
    per (source index, monomial).  One ``solve`` of the block
    lower-triangular system gives all 25 relations.  Of the 5 order-3
    equations, each unknown keeps the one where its coefficient is largest
    in absolute value (leaving out j = 3, the B-spline centred on the
    midpoint knot); the left-out equation with the solution substituted is
    the constraint, and the order-3 relations are unique only modulo it.
    """
    tables = edge_restriction_tables()
    weights = catalog("c").weights
    b2, b3 = TriPoly.variable(1), TriPoly.variable(2)
    alpha_here = (-(b2 + b3), b2, b3)      # direction toward the far vertex
    alpha_there = (Fraction(-1), Fraction(0), Fraction(1))
    orders, kept, left = [], [], []
    for k, hi in enumerate(N_BLOCKS):
        block = []
        for j in range(1, 9 - k):
            lhs, rhs = [0] * N_BLOCKS[3], {}
            for i in range(hi):
                poly = tables[i][k].get(j)
                if poly:
                    lhs[i] = weights[i] * poly.evaluate(*alpha_there)
                    for exp, c in poly.evaluate(*alpha_here).terms.items():
                        rhs[i, exp] = weights[i] * c
            block.append((lhs, rhs))
        for u in range(len(orders), hi):
            piv = max(block, key=lambda eq: abs(eq[0][u]))
            block.remove(piv)
            kept.append(piv)
            orders.append(k)
        left += block
    cols = sorted({key for _, rhs in kept + left for key in rhs})
    sol = solve([lhs for lhs, _ in kept], [[rhs.get(c, 0) for c in cols] for _, rhs in kept])

    def by_source(row, k):
        terms = {}
        for (src, exp), v in zip(cols, row):
            if v:
                terms.setdefault(src, {})[exp] = v
        return {src: _homogenize(TriPoly(t), k) for src, t in terms.items()}

    (lhs, rhs), = left
    constraint = by_source([rhs.get(c, 0) - sum(a * x[n] for a, x in zip(lhs, sol))
                            for n, c in enumerate(cols)], 3)
    if not constraint:
        raise AssertionError("the order-3 block produced no constraint")
    return tuple(by_source(x, k) for x, k in zip(sol, orders)), constraint


@dataclass(frozen=True)
class SmoothnessSystem:
    """Numeric relations for a given order and opposite-vertex position."""

    order: int
    beta: tuple
    relations: tuple     # of (index, {source index: Fraction}), 0-based
    constraint: tuple    # ((index, Fraction), ...) or () below order 3


def smoothness_system(order: int, beta) -> SmoothnessSystem:
    """Relations tying a neighbour's near-edge coefficients to this patch.

    beta holds the barycentric coordinates of the neighbour's far vertex
    with respect to this triangle (its third coordinate is nonzero for a
    genuine neighbour).  b1 and b2 are converted exactly and b3 is taken as
    1 - b1 - b2, since float coordinates need not sum to 1 exactly; exact
    coordinates that do not sum to 1 raise DomainError.
    """
    if order not in (0, 1, 2, 3):
        raise DomainError("order must be 0..3")
    if is_exact(beta) and sum(beta) != 1:
        raise DomainError("beta must sum to 1")
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    beta = (b1, b2, 1 - b1 - b2)
    rels, cons = _smoothness_symbolic()
    numeric = []
    for i in range(N_BLOCKS[order]):
        row = {src: poly.evaluate(*beta) for src, poly in rels[i].items()}
        numeric.append((i, {src: v for src, v in row.items() if v}))
    constraint = ()
    if order == 3:
        constraint = tuple(sorted((src, poly.evaluate(*beta))
                                  for src, poly in cons.items()))
        constraint = tuple((src, v) for src, v in constraint if v)
    return SmoothnessSystem(order, beta, tuple(numeric), constraint)


def propagate(coeffs, beta, order: int = 3):
    """Neighbour coefficients forced by a C^order join, plus feasibility.

    Returns (ctilde, feasible): ctilde is the list of the neighbour's first
    N_BLOCKS[order] coefficients (the ones its restriction tables see), and
    feasible reports the order-3 single-patch compatibility relation (always
    True below order 3).
    """
    coeffs = list(coeffs)
    if len(coeffs) != 39:
        raise DimensionMismatch("need 39 coefficients")
    sysm = smoothness_system(order, beta)
    zero = Fraction(0) if is_exact(coeffs) else 0.0
    out = [sum((v * coeffs[src] for src, v in row.items()), start=zero)
           for _, row in sysm.relations]
    feasible = True
    if order == 3:
        residual = sum(v * coeffs[src] for src, v in sysm.constraint)
        feasible = residual == 0
    return out, feasible


def c3_residual(coeffs, beta):
    """Value of the single-triangle order-3 compatibility relation."""
    sysm = smoothness_system(3, beta)
    return sum(v * coeffs[src] for src, v in sysm.constraint)


# ---------------------------------------------------------------------------
# Triangulations and global splines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Triangulation:
    """Vertices and triangles (vertex index triples, 0-based)."""

    vertices: tuple
    triangles: tuple

    def __post_init__(self):
        n = len(self.vertices)
        for t, tri in enumerate(self.triangles):
            if len(tri) != 3 or len(set(tri)) != 3:
                raise NonConformingMesh(f"triangle {t} needs three distinct vertices")
            if not all(0 <= i < n for i in tri):
                raise NonConformingMesh(f"triangle {t} has a vertex index outside 0..{n - 1}")
            a, b, c = (self.vertices[i] for i in tri)
            if signed_area2(a, b, c) == 0:
                raise DegenerateTriangle(f"triangle {t} is degenerate")
        for edge, tris in self.edge_adjacency().items():
            if len(tris) > 2:
                raise NonConformingMesh(f"edge {edge} shared by {len(tris)} triangles")

    def edges(self) -> tuple:
        return tuple(sorted(self.edge_adjacency()))

    def interior_edges(self) -> tuple:
        return tuple(e for e, ts in sorted(self.edge_adjacency().items()) if len(ts) == 2)

    def edge_adjacency(self) -> dict:
        adj = {}
        for t, tri in enumerate(self.triangles):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
                adj.setdefault(tuple(sorted((a, b))), []).append(t)
        return adj

    def frame(self, t: int) -> PS12Frame:
        a, b, c = (self.vertices[i] for i in self.triangles[t])
        return make_frame(a, b, c)


def triangulation(vertices, triangles) -> Triangulation:
    return Triangulation(tuple(Point2(*v) for v in vertices),
                         tuple(tuple(t) for t in triangles))


@dataclass(frozen=True)
class GlobalSpline:
    """One basis-c coefficient vector per triangle of a triangulation."""

    tri: Triangulation
    coeffs: tuple    # per triangle, 39 values
    basis: str = "c"

    def __post_init__(self):
        if len(self.coeffs) != len(self.tri.triangles):
            raise DimensionMismatch("one coefficient vector per triangle required")

    def spline(self, t: int):
        return Spline(self.tri.frame(t), self.basis, tuple(self.coeffs[t]))


def _edge_param_bary(tri_vertices: tuple, edge: tuple, t):
    """Macro-barycentric coordinates, in a triangle's local order, of the
    point at parameter t along a global edge (structurally exact)."""
    ia, ib = edge
    beta = [t * 0] * 3
    beta[tri_vertices.index(ia)] = 1 - t
    beta[tri_vertices.index(ib)] = t
    return tuple(beta)


def verify_smoothness(gs: GlobalSpline, edge, order: int, samples: int = 25,
                      tol=None) -> dict:
    """Maximum cross-edge jump of each derivative order up to ``order``.

    Samples interior parameters of the shared edge and compares one-sided
    directional derivatives computed from the Bernstein forms on the two
    adjacent triangles (no numerical differentiation).  Exact data yields
    exact jumps (zero for a genuine join); float data gets a pass flag
    against ``tol``, which defaults to 1e-10 in that layer.  Raises
    DomainError for samples < 1 or order < 0, which would check nothing.
    """
    if samples < 1 or order < 0:
        raise DomainError("verify_smoothness needs samples >= 1 and order >= 0")
    edge = tuple(sorted(edge))
    adj = gs.tri.edge_adjacency().get(edge)
    if adj is None or len(adj) != 2:
        raise NonConformingMesh(f"edge {edge} is not an interior edge")
    ta, tb = adj
    sa, sb = gs.spline(ta), gs.spline(tb)
    exact = sa.exact and sb.exact
    if tol is None and not exact:
        tol = 1e-10
    va, vb = (gs.tri.vertices[i] for i in edge)
    u = Point2(-(vb.y - va.y), vb.x - va.x)
    ffa, ffb = face_forms(sa), face_forms(sb)
    jumps = {k: Fraction(0) if exact else 0.0 for k in range(order + 1)}
    for n in range(1, samples + 1):
        t = Fraction(n, samples + 1) if exact else n / (samples + 1)
        ba = _edge_param_bary(gs.tri.triangles[ta], edge, t)
        bb = _edge_param_bary(gs.tri.triangles[tb], edge, t)
        for k in range(order + 1):
            gap = abs(ffa.value_at_bary(ba, (u,) * k) - ffb.value_at_bary(bb, (u,) * k))
            if gap > jumps[k]:
                jumps[k] = gap
    report = {"jumps": jumps, "max": max(jumps.values())}
    if tol is not None:
        report["pass"] = all(float(j) <= tol for j in jumps.values())
    return report


# ---------------------------------------------------------------------------
# Hermite nodal basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def nodal_q_coefficients() -> tuple:
    """39 x 39 exact matrix N with nodal function i = sum_j N[i][j] Q_j.

    Row order matches the canonical functional order; column order the
    canonical basis-c element order.  N is the inverse of the collocation
    matrix L[j][k] = lambda_k(Q_j) of the raw simplex splines, so its rows
    are dual to the functionals; it is independent of the triangle geometry.
    """
    L = [list(lambda_vector(el.multiset)) for el in catalog("c").elements]
    return tuple(tuple(row) for row in inverse(L))


@dataclass(frozen=True)
class NodalBasis:
    """The 39 splines dual to the canonical functionals, over one frame."""

    frame: PS12Frame
    splines: tuple


def nodal_basis(frame: PS12Frame) -> NodalBasis:
    """Nodal basis functions as basis-c splines on a frame."""
    spec = catalog("c")
    rows = nodal_q_coefficients()
    splines = tuple(
        Spline(frame, "c", tuple(v / el.weight for v, el in zip(row, spec.elements)))
        for row in rows)
    return NodalBasis(frame, splines)


# ---------------------------------------------------------------------------
# Global Hermite interpolation
# ---------------------------------------------------------------------------

def _jet_directional(jet: dict, dirs) -> object:
    """Apply directional derivatives to a Cartesian jet dict {(i, j): value}."""
    cur = dict(jet)
    for u in dirs:
        nxt = {}
        for (a, b) in cur:
            up = cur.get((a + 1, b))
            vp = cur.get((a, b + 1))
            if up is not None and vp is not None:
                nxt[(a, b)] = u.x * up + u.y * vp
        cur = nxt
    return cur[(0, 0)]


def _univariate_rows(degree: int, conditions) -> list:
    """Rows of exact (t, derivative order) conditions on the consecutive
    degree-d B-splines of an edge."""
    return [[bspline_derivative(UnivariateBSplineRef(degree, j + 1), t, order)
             for j in range(degree + 3)] for t, order in conditions]


@lru_cache(maxsize=1)
def _edge_rows() -> tuple:
    """Exact rows taking an edge's data to the values its functionals read.

    On an edge with parameter t, f is the tangential quintic spline, fixed
    by its derivatives of orders 0..3 at t = 0 and 1, and g the quartic
    spline of the cross derivative, fixed by its derivatives of orders 0..2
    at t = 0 and 1 and by g(1/2).  The f rows map those 8 values to f''(1/4),
    f'(1/2), f''(3/4); the g rows map the 7 values to g'(1/4), g'(3/4).
    """
    q, h, ends = Fraction(1, 4), Fraction(1, 2), (Fraction(0), Fraction(1))
    f_read, f_fixed = ((q, 2), (h, 1), (3 * q, 2)), [(t, o) for t in ends for o in range(4)]
    g_read, g_fixed = ((q, 1), (3 * q, 1)), [(t, o) for t in ends for o in range(3)] + [(h, 0)]
    # a read row times the inverse of the fixing conditions
    return tuple(
        tuple(mat_vec(list(zip(*inverse(_univariate_rows(d, fixed)))), row)
              for row in _univariate_rows(d, read))
        for d, read, fixed in ((5, f_read, f_fixed), (4, g_read, g_fixed)))


def hermite_interpolate(tri: Triangulation, vertex_jets, edge_data) -> GlobalSpline:
    """Global spline matching vertex jets and edge cross derivatives.

    vertex_jets maps each vertex index to its ten Cartesian derivative
    values ordered like JET_ORDERS.  edge_data maps each sorted edge pair
    (a, b) to three values taken in the direction u = rot90(v_b - v_a):
    the second derivative at (3 v_a + v_b)/4, the first derivative at the
    midpoint, and the second derivative at (v_a + 3 v_b)/4.  The result is
    continuous with two continuous derivatives across interior edges and
    three at the vertices; it is exact when the vertices and data are.
    """
    vertex_jets = {k: tuple(v) for k, v in vertex_jets.items()}
    edge_data = {tuple(sorted(k)): tuple(v) for k, v in edge_data.items()}
    if sorted(vertex_jets) != list(range(len(tri.vertices))):
        raise DimensionMismatch("need a 10-jet for every vertex")
    if sorted(edge_data) != list(tri.edges()):
        raise DimensionMismatch("need 3 values for every edge")
    if any(len(v) != 10 for v in vertex_jets.values()) or \
            any(len(v) != 3 for v in edge_data.values()):
        raise DimensionMismatch("jet length must be 10 and edge data length 3")

    jets = {i: {key: vertex_jets[i][n] for n, key in enumerate(JET_ORDERS)}
            for i in vertex_jets}
    # per edge, over the global normal ug and tangent tg: the second normal,
    # mixed and tangential derivatives at each quarterpoint, and the first
    # normal and tangential derivatives at the midpoint
    f_rows, g_rows = _edge_rows()
    edge_values = {}
    for (a, b), (d2q1, d1m, d2q2) in edge_data.items():
        va, vb = tri.vertices[a], tri.vertices[b]
        tg = Point2(vb.x - va.x, vb.y - va.y)
        ug = Point2(-tg.y, tg.x)
        f = [_jet_directional(jets[v], (tg,) * o) for v in (a, b) for o in range(4)]
        g = [_jet_directional(jets[v], (ug,) + (tg,) * o) for v in (a, b) for o in range(3)]
        f_q1, f_m, f_q2 = mat_vec(f_rows, f)
        g_q1, g_q2 = mat_vec(g_rows, g + [d1m])
        edge_values[a, b] = (tg, ug, (d2q1, g_q1, f_q1), (d1m, f_m), (d2q2, g_q2, f_q2))

    nodal = nodal_q_coefficients()
    spec = catalog("c")
    coeff_vectors = []
    for t, tri_idx in enumerate(tri.triangles):
        lams = build_lambda(tri.frame(t))
        # vertex jets in the canonical local directions
        values = [_jet_directional(jets[tri_idx[lam.site[1] - 1]], lam.directions)
                  for lam in lams[:30]]
        # edge functionals
        for e, (_, a_loc, b_loc, _) in enumerate(EDGE_SEQUENCE):
            ga, gb = tri_idx[a_loc - 1], tri_idx[b_loc - 1]
            key = tuple(sorted((ga, gb)))
            tg, ug, q_first, (d1m, f_m), q_second = edge_values[key]
            # express the local direction (the midpoint functional's) over
            # (global normal, tangent)
            (ul,) = lams[31 + 3 * e].directions
            det = ug.x * tg.y - ug.y * tg.x
            s = (ul.x * tg.y - ul.y * tg.x) / det
            w = (ug.x * ul.y - ug.y * ul.x) / det

            def quarterpoint(d2, g1, f2):
                return s * s * d2 + 2 * s * w * g1 + w * w * f2

            # the local q1 is the quarterpoint near ga
            near, far = (q_first, q_second) if ga == key[0] else (q_second, q_first)
            values += [quarterpoint(*near), s * d1m + w * f_m, quarterpoint(*far)]
        coeffs = [Fraction(0) if is_exact(values) else 0.0] * 39
        for fi, val in enumerate(values):
            if val == 0:
                continue
            row = nodal[fi]
            for j in range(39):
                if row[j]:
                    coeffs[j] += val * row[j]
        coeffs = [c / el.weight for c, el in zip(coeffs, spec.elements)]
        coeff_vectors.append(tuple(coeffs))
    return GlobalSpline(tri, tuple(coeff_vectors))


def hexagon_demo() -> GlobalSpline:
    """Nodal hat function of the centre vertex on a regular hexagon fan."""
    import math
    verts = [Point2(0.0, 0.0)]
    verts += [Point2(math.cos(2 * math.pi * i / 6), math.sin(2 * math.pi * i / 6))
              for i in range(6)]
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    tri = triangulation(verts, tris)
    jets = {i: (0.0,) * 10 for i in range(7)}
    jets[0] = (1.0,) + (0.0,) * 9
    edges = {e: (0.0, 0.0, 0.0) for e in tri.edges()}
    return hermite_interpolate(tri, jets, edges)
