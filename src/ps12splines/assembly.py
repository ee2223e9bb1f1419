"""Smooth joins of splines across triangles.

Splines on two triangles sharing an edge meet with C^r smoothness exactly
when the Bernstein coefficients of their cross-edge derivatives of orders
0..r agree on the edge.  For basis c, the paper's form of those conditions
is derived symbolically here: linear relations between the coefficients
near the edge, from one exact solve read off the coefficients of the
restriction tables, which hold no a1 (a1 = -(a2 + a3)).  The order-3
block is overdetermined and leaves one relation among the coefficients of
a single triangle, so full C^3 across an edge constrains the patch on its
own.  verify_smoothness checks a join in any basis from the coefficients
themselves: the split has a vertex at each edge midpoint, so a cross
derivative there is one polynomial per half-edge, differenced out of the
half-edge faces' near-edge ordinates in integers; the restriction tables
run the same passes (simplex_spline._differences) once per monomial in a.

The module also carries the Hermite nodal basis dual to the 39 canonical
functionals (the inverse of the basis-c collocation matrix) and global
interpolation of vertex jets plus edge cross derivatives on a
triangulation, which makes each triangle's frame once.  Hermite assembly
maps the nine named directions of dual_functionals' table onto a frame's
corners (an exact frame's integer corners) and takes every functional by
its site; an edge's data reach the functionals on it through two
constant matrices of its univariate spline spaces (_edge_rows).  Exact
input runs on integers over one denominator, float input on floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import compress, islice
from math import comb, inf, isfinite, perm
from numbers import Integral
from operator import add, mul

from .errors import DegenerateTriangle, DimensionMismatch, DomainError, NonConformingMesh
from .bspline1d import bspline_coefficients
from .dual_functionals import (DIRECTIONS, FUNCTIONALS, JET_ORDERS, bary_direction,
                               direction_vectors, lambda_vector)
from .geometry import (EDGES, FACE_MATRICES, FACES, VERTEX_BARY, PS12Frame, Point2,
                       direction_coords, face_bary, locate_face_bary, make_frame)
from .linalg import _apply_rows, inverse, mat_vec, solve, sparse_integer_matrix, sparse_mat_vec
from .marsden_catalog import catalog
from .rational import _dyadic, _over_lcm, finite_numbers, is_exact
from .simplex_spline import _differences, _face_ordinates, _row_terms, bernstein_exponents
from .spline_fn import Spline, _packed, _unchecked, scaled_basis_tables

#: Number of basis elements with nonzero derivative restrictions of orders
#: 0..3 on the edge [v1, v2] (in the canonical element order).
N_BLOCKS = (8, 15, 21, 25)


# ---------------------------------------------------------------------------
# Cross-edge derivatives and the symbolic restriction tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _half_edges(la: int, lb: int) -> tuple:
    """(mid, halves): the macro edge from corner la to corner lb (1-based) as
    each half's (face, p, near), la's half first, and mid, the half that
    locate_face_bary puts its midpoint in.  p orders the face's corners (la-
    and lb-ward ends, third vertex), and near[l][i] is the position in the
    face's table of the ordinate c[5 - l - i, i, l] in that order, l from the edge."""
    m = next(m for a, m, b in EDGES.values() if {a, b} == {la, lb})
    halves = []
    for ends in ((la, m), (m, lb)):
        fi, face = next((fi, f) for fi, f in enumerate(FACES, 1) if set(ends) <= set(f))
        p = tuple(map(face.index, (*ends, *set(face) - set(ends))))
        exps = [tuple(e[i] for i in p) for e in bernstein_exponents(5)]
        halves.append((fi, p, [[exps.index((5 - l - i, i, l)) for i in range(6 - l)]
                               for l in range(6)]))
    return [fi for fi, _, _ in halves].index(locate_face_bary(*VERTEX_BARY[m - 1])), tuple(halves)


@lru_cache(maxsize=1)
def edge_restriction_tables() -> tuple:
    """D^k restrictions of the basis-c splines to the edge [v1, v2].

    Entry [i][k] is a dict {j: P} meaning D^k_u Q_i restricted to the edge
    equals sum_j P(a1, a2, a3) B_j^(5-k), with (a1, a2, a3) the directional
    coordinates of u and P a form of degree k (as in
    marsden_catalog.linear_product), in the normal form that
    a1 = -(a2 + a3) gives (directional coordinates sum to 0): a polynomial
    in a2 and a3 alone.  Rows i >= N_BLOCKS[k] are empty.  On the half-edge
    faces D1 and D2, u's face-directional triple is a2 h2 + a3 h3 for h2 =
    M (e2 - e1), h3 = M (e3 - e1) (M the face's FACE_MATRICES rows), so a2^i
    a3^(k-i) has C(k, i) D_h2^i D_h3^(k-i): the join check's _differences on
    the near-edge rows, in integers over den, joined by bspline_coefficients.
    """
    _, halves = _half_edges(1, 2)
    dirs = [[[r[c] - r[0] for r in (FACE_MATRICES[fi - 1][i] for i in p)] for c in (1, 2)]
            for fi, p, _ in halves]
    out = []
    for el in catalog("c").elements:
        den, faces = _face_ordinates(el.multiset)
        edge_rows = [[[(faces[fi - 1] or (0,) * 21)[x] for x in ls] for ls in near[:4]]
                     for fi, _, near in halves]
        per_k = []
        for k in range(4):
            row = {}
            for i in range(k, -1, -1):    # a2^k first
                pieces = [[*_differences(t[:k + 1], [h2] * i + [h3] * (k - i), 5)][-1][0]
                          for t, (h2, h3) in zip(edge_rows, dirs)]
                for j, x in enumerate(bspline_coefficients(5 - k, pieces), 1):
                    if x:
                        row.setdefault(j, {})[0, i, k - i] = Fraction(comb(k, i) * x, den)
            per_k.append({j: row[j] for j in sorted(row)})
        out.append(tuple(per_k))
    return tuple(out)


# ---------------------------------------------------------------------------
# Smoothness relations
# ---------------------------------------------------------------------------

def _homogenize(terms: dict, deg: int) -> dict:
    """Unique degree-deg form equal to sum_e terms[e] b^e when
    b1 + b2 + b3 = 1: each term times (b1 + b2 + b3)^(deg - |e|), expanded
    by the multinomial theorem."""
    out = {}
    for exp, coef in terms.items():
        if sum(exp) > deg:
            raise AssertionError("coefficient degree exceeds the block order")
        for mult, *f in _row_terms(deg - sum(exp)):
            e = tuple(map(add, exp, f))
            out[e] = out.get(e, 0) + mult * coef
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=1)
def _smoothness_symbolic():
    """Relations expressing the 25 near-edge coefficients of the neighbour.

    Returns (relations, constraint): relations[i] (i < 25) is a dict
    {source index: form in (b1, b2, b3) of the block order}
    with ctilde_i = sum_src poly(beta) * c_src, and constraint is the same
    kind of dict R with the order-3 compatibility condition R(c, beta) = 0.

    Equation (k, j) matches the j-th B-spline coefficient of the order-k
    cross-edge restriction on the two sides: the unknowns ctilde on the left,
    this patch's coefficients on the right as polynomials in b, one column
    per (source index, monomial).  The tables hold no a1, so the direction
    (-1, 0, 1) there reads an entry's a3^k coefficient, and (-(b2 + b3), b2,
    b3) here its own terms.  One ``solve`` of the block lower-triangular
    system gives all 25 relations.  Of the 5 order-3
    equations, each unknown keeps the one where its coefficient is largest
    in absolute value (leaving out j = 3, the B-spline centred on the
    midpoint knot); the left-out equation with the solution substituted is
    the constraint, and the order-3 relations are unique only modulo it.
    """
    tables = edge_restriction_tables()
    weights = catalog("c").weights
    orders, kept, left = [], [], []
    for k, hi in enumerate(N_BLOCKS):
        block = []
        for j in range(1, 9 - k):
            lhs, rhs = [0] * N_BLOCKS[3], {}
            for i in range(hi):
                poly = tables[i][k].get(j)
                if poly:
                    lhs[i] = weights[i] * poly.get((0, 0, k), 0)
                    for exp, c in poly.items():
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
        return {src: _homogenize(t, k) for src, t in terms.items()}

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
    1 - b1 - b2, since float coordinates need not sum to 1 exactly.  An
    order that is not an int in 0..3, a coordinate that is not a finite
    number, and exact coordinates that do not sum to 1 raise DomainError.
    """
    if isinstance(order, bool) or not isinstance(order, Integral) or not 0 <= order <= 3:
        raise DomainError("order must be an int in 0..3")
    if len(beta := finite_numbers(beta, "beta")) != 3:
        raise DimensionMismatch("beta needs three barycentric coordinates")
    if is_exact(beta) and sum(beta) != 1:
        raise DomainError("beta must sum to 1")
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    beta = (b1, b2, 1 - b1 - b2)
    rels, cons = _smoothness_symbolic()

    def at_beta(form):
        return sum(c * beta[0] ** i * beta[1] ** j * beta[2] ** k
                   for (i, j, k), c in form.items())

    numeric = tuple((i, {src: v for src, poly in rels[i].items() if (v := at_beta(poly))})
                    for i in range(N_BLOCKS[order]))
    constraint = tuple((src, v) for src, poly in sorted(cons.items())
                       if (v := at_beta(poly))) if order == 3 else ()
    return SmoothnessSystem(order, beta, numeric, constraint)


def propagate(coeffs, beta, order: int = 3):
    """Neighbour coefficients forced by a C^order join, plus feasibility.

    Returns (ctilde, feasible): ctilde is the list of the neighbour's first
    N_BLOCKS[order] coefficients (the ones its restriction tables see), and
    feasible reports the order-3 single-patch compatibility relation (always
    True below order 3).
    """
    coeffs = finite_numbers(coeffs, "the coefficients")
    if len(coeffs) != 39:
        raise DimensionMismatch("need 39 coefficients")
    sysm = smoothness_system(order, beta)
    zero = Fraction(0) if is_exact(coeffs) else 0.0
    # left to right, as the float layer adds (sum() compensates floats from Python 3.12)
    out = [reduce(add, (v * coeffs[src] for src, v in row.items()), zero)
           for _, row in sysm.relations]
    feasible = order < 3 or reduce(add, (v * coeffs[src] for src, v in sysm.constraint), 0) == 0
    return out, feasible


# No caller in src/: tests/test_acceptance.py calls it.
def c3_residual(coeffs, beta):
    """Value of the single-triangle order-3 compatibility relation."""
    coeffs = finite_numbers(coeffs, "the coefficients")
    if len(coeffs) != 39:
        raise DimensionMismatch("need 39 coefficients")
    sysm = smoothness_system(3, beta)
    return reduce(add, (v * coeffs[src] for src, v in sysm.constraint), 0)


# ---------------------------------------------------------------------------
# Triangulations and global splines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Triangulation:
    """Vertices (Point2s) and triangles (vertex index triples, 0-based) that meet edge to edge,
    each triangle's frame made once.  DomainError for a vertex that is not a pair."""

    vertices: tuple
    triangles: tuple
    _frames: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "vertices", tuple(Point2(*v) for v in self.vertices))
        except TypeError:
            raise DomainError("a vertex is a pair of numbers") from None
        try:
            object.__setattr__(self, "triangles", tuple(map(tuple, self.triangles)))
        except TypeError:
            raise NonConformingMesh("the triangles are a sequence of vertex index triples") from None
        n, frames, runs = len(self.vertices), [], {}
        for t, tri in enumerate(self.triangles):
            if not all(isinstance(i, Integral) and not isinstance(i, bool) and 0 <= i < n
                       for i in tri):  # before set(tri), which would hash a list
                raise NonConformingMesh(f"triangle {t} has a vertex index that is not an int "
                                        f"in 0..{n - 1}")
            if len(tri) != 3 or len(set(tri)) != 3:
                raise NonConformingMesh(f"triangle {t} needs three distinct vertices")
            try:
                frames.append(make_frame(*(self.vertices[i] for i in tri)))
            except DegenerateTriangle as exc:
                raise DegenerateTriangle(f"triangle {t}: {exc}") from None
            # counterclockwise, two triangles that run an edge the same way overlap along it
            ccw = tri if frames[-1].area2 > 0 else tri[::-1]
            for a, b in zip(ccw, ccw[1:] + ccw[:1]):
                if (s := runs.setdefault((a, b), t)) != t:
                    raise NonConformingMesh(f"triangles {s} and {t} overlap along edge {a, b}")
        object.__setattr__(self, "_frames", tuple(frames))

    def edges(self) -> tuple:
        return tuple(sorted(self._adjacency))

    def interior_edges(self) -> tuple:
        return tuple(e for e, ts in sorted(self._adjacency.items()) if len(ts) == 2)

    @cached_property
    def _adjacency(self) -> dict:
        adj = {}
        for t, tri in enumerate(self.triangles):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
                adj.setdefault(tuple(sorted((a, b))), []).append(t)
        return {e: tuple(ts) for e, ts in adj.items()}

    def frame(self, t: int) -> PS12Frame:
        """Triangle t's frame; DomainError unless t is a triangle index."""
        if isinstance(t, bool) or not isinstance(t, Integral) or not 0 <= t < len(self._frames):
            raise DomainError(f"no triangle {t!r}: an index is an int in 0..{len(self._frames) - 1}")
        return self._frames[t]


triangulation = Triangulation  # the call that serialize, hexagon_demo and perfbench make


@dataclass(frozen=True)
class GlobalSpline:
    """One basis-c coefficient vector per triangle; hermite_interpolate's are read off the
    triangles' splines it hands over (exact ones stay integers until coeffs is first read)."""

    tri: Triangulation
    coeffs: tuple    # per triangle, 39 values
    basis: str = "c"
    _splines: dict = field(init=False, repr=False, compare=False)  # triangle index -> its Spline

    def __post_init__(self):
        if len(self.coeffs) != len(self.tri.triangles):
            raise DimensionMismatch("one coefficient vector per triangle required")
        object.__setattr__(self, "_splines", {})

    def __getattr__(self, name: str):  # coeffs of an _unchecked global spline, from its splines'
        if name != "coeffs":
            raise AttributeError(name)
        vars(self)["coeffs"] = tuple(s.coeffs for s in self._splines.values())
        return self.coeffs

    def spline(self, t: int) -> Spline:
        """The spline on triangle t, built once, with its frame and contractions."""
        frame = self.tri.frame(t)  # DomainError before t is hashed
        if t not in self._splines:
            self._splines[t] = Spline(frame, self.basis, tuple(self.coeffs[t]))
        return self._splines[t]


@lru_cache(maxsize=None)
def _near_rows(basis_id: str, la: int, lb: int, order: int, kind) -> tuple:
    """spline_fn._packed (entries by kind, int or float) of the ordinate rows near[l], l <= order,
    of the half-edge faces of the edge from corner la to lb (_half_edges), la's half first."""
    _, table = scaled_basis_tables(basis_id)
    rows = [table[fi - 1][i] for fi, _, near in _half_edges(la, lb)[1] for ls in near[:order + 1]
            for i in ls]
    return _packed([tuple(compress(enumerate(row), row)) for row in rows], kind)


def _cross_edge_coefficients(s: Spline, la: int, lb: int, order: int) -> tuple:
    """(out, mid) on the macro edge from corner la to corner lb (1-based), split at its
    midpoint: out[k] = (den, (nums of la's half, nums of lb's)), the Bernstein coefficients of
    D_u^k s, u = rot90(v_lb - v_la), on each half from its la-ward end, over the one den of
    order k, k = 0..order; mid, the half located at the midpoint.  Only the near-edge rows are
    contracted (_near_rows), float ones then put over one power of 2.  Order k is row 0 of
    the ordinates c[5-l-i, i, l] after k passes of _differences along u's face-directional
    triple over dden (_int_direction, or float direction_coords over a power of 2)."""
    mid, halves = _half_edges(la, lb)
    if (ints := s.frame._int_corners) is None:
        a, b = s.frame.corners[la - 1], s.frame.corners[lb - 1]
        dden, delta = _dyadic(direction_coords(s.frame, Point2(-(b.y - a.y), b.x - a.x)))
    else:
        (ax, ay), (bx, by) = ints[1][la - 1], ints[1][lb - 1]
        dden, delta = s.frame._int_direction(ay - by, bx - ax)
    values = s._contract(_near_rows(s.basis, la, lb, order, int if s.exact else float), s.exact)
    den, values = (scaled_basis_tables(s.basis)[0] * s._int_coeffs[0], values) if s.exact \
        else _dyadic(values)
    values, nums = iter(values), []
    for fi, p, _ in halves:
        _, g = face_bary(fi, delta, dden)
        t = [list(islice(values, 6 - l)) for l in range(order + 1)]
        nums.append([rows[0] for rows in _differences(t, [[g[i] for i in p]] * order, 5)])
    return [(den * dden ** k, pair) for k, pair in enumerate(zip(*nums))], mid


@lru_cache(maxsize=64)
def _sample_rows(n: int, samples: int) -> tuple:
    """(half, row) per sample i / m, m = samples + 1, but the midpoint: at w / m on the half,
    row[j] = comb(n, j) (m - w)^(n - j) w^j, the degree-n Bernstein values times m^n."""
    m = samples + 1
    return tuple((2 * i > m, [comb(n, j) * (m - w) ** (n - j) * w ** j for j in range(n + 1)])
                 for i in range(1, m) if 2 * i != m for w in [2 * i % m])


def _nearest_float(x: int, d: int) -> float:
    """x / d (x >= 0, d > 0) rounded to the nearest float, inf beyond the float range."""
    try:
        return x / d
    except OverflowError:  # int division raises where the rounding gives inf
        return inf


def verify_smoothness(gs: GlobalSpline, edge, order: int, samples: int = 25,
                      tol=None) -> dict:
    """Cross-edge gaps and sampled jumps of the derivatives of orders 0..order.

    On each side the order-k derivative along u = rot90(v_b - v_a) is, on the edge, one
    polynomial of degree 5 - k per half-edge (_cross_edge_coefficients).  ``gaps[k]``, the
    largest difference of the two sides' Bernstein coefficients, bounds the order-k jump on
    the whole edge, and on exact data the join is C^k exactly when gaps[0..k] are 0, in any
    basis.  ``jumps[k]``, the largest jump at ``samples`` equispaced interior points, proves
    nothing unless they are unisolvent for the restriction space; at the midpoint each side
    reads the face locate_face_bary picks, so for k = 4, 5 (a side's restriction jumps there)
    jumps[k] may exceed gaps[k].  Each is an integer maximum over the one denominator of the
    sides' differences, divided once: a Fraction for exact data, else the float nearest the
    exact value for the float ordinates (inf beyond the float range).  ``max`` is the largest
    jump; given ``tol`` (1e-10 by default for float data), ``pass`` says whether every gap is
    within it, compared exactly.
    Raises DomainError for samples not an int >= 1, order not an int in 0..5, tol not
    a finite number, NaN or inf; NonConformingMesh unless edge is an interior edge.
    """
    if any(isinstance(x, bool) or not isinstance(x, Integral) for x in (samples, order)) \
            or samples < 1 or not 0 <= order <= 5:
        raise DomainError("verify_smoothness needs an int samples >= 1 and an int order in 0..5")
    if tol is not None:
        finite_numbers([tol], "tol")
    try:
        adj = gs.tri._adjacency.get(edge := tuple(sorted(edge)))
    except TypeError:   # not a pair of comparable, hashable indices
        adj = None
    if adj is None or len(adj) != 2:
        raise NonConformingMesh(f"edge {edge!r} is not an interior edge")
    splines = [gs.spline(t) for t in adj]
    exact = all(s.exact for s in splines)
    tol = 1e-10 if tol is None and not exact else tol
    (a, a_mid), (b, b_mid) = (
        _cross_edge_coefficients(s, *(gs.tri.triangles[t].index(v) + 1 for v in edge), order)
        for t, s in zip(adj, splines))
    div = Fraction if exact else _nearest_float
    m = samples + 1     # sample i, at i / m along the edge, is at w / m on half h
    gaps, jumps = {}, {}
    for k, ((ad, an), (bd, bn)) in enumerate(zip(a, b)):
        scale = m ** (5 - k)
        # per half, the coefficients of a - b over ad * bd
        diffs = [[x * bd - y * ad for x, y in zip(p, q)] for p, q in zip(an, bn)]
        gaps[k] = div(max(max(map(abs, d)) for d in diffs), ad * bd)
        top = max((abs(sum(map(mul, row, diffs[h]))) for h, row in _sample_rows(5 - k, samples)),
                  default=0)
        if m % 2 == 0:  # the midpoint ends half 0 and starts half 1
            top = max(top, abs(an[a_mid][a_mid - 1] * bd - bn[b_mid][b_mid - 1] * ad) * scale)
        jumps[k] = div(top, ad * bd * scale)
    report = {"jumps": jumps, "max": max(jumps.values()), "gaps": gaps}
    if tol is not None:
        report["pass"] = all(g <= tol for g in gaps.values())
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


@lru_cache(maxsize=1)
def _nodal_integer() -> tuple:
    """sparse_integer_matrix of diag(1 / w_i) N^T, N = nodal_q_coefficients():
    row j takes a triangle's 39 functional values to its coefficient j."""
    return sparse_integer_matrix([[n / el.weight for n in col] for el, col in
                                  zip(catalog("c").elements, zip(*nodal_q_coefficients()))])


@lru_cache(maxsize=1)
def _nodal_float() -> tuple:
    """Per basis-c element: float weight, nodal_q_coefficients() column, as floats."""
    return tuple((float(el.weight), col, tuple(map(float, col)))
                 for el, col in zip(catalog("c").elements, zip(*nodal_q_coefficients())))


# ---------------------------------------------------------------------------
# Global Hermite interpolation
# ---------------------------------------------------------------------------

#: Per jet length, the positions of (a + 1, b) and (a, b + 1) per entry (a, b) one order lower.
_JET_STEPS = {(n + 1) * (n + 2) // 2: tuple((JET_ORDERS.index((a + 1, b)), JET_ORDERS.index((a, b + 1)))
                                            for a, b in JET_ORDERS if a + b < n) for n in range(4)}

#: The paths of direction names that jet functionals take, each after its
#: prefix: per corner as in FUNCTIONALS, on an edge t^o then n t^o.
_CORNER_PATHS = {c: [f.directions for f in FUNCTIONALS if f.site[:2] == ("v", c)] for c in (1, 2, 3)}
_EDGE_PATHS = tuple(("t",) * o for o in range(4)) + tuple(("n",) + ("t",) * o for o in range(3))

#: Each named direction's corner weights (head minus tail), doubled to integers.
_DOUBLED_DIRECTIONS = {name: tuple(int(2 * x) for x in bary_direction(name)) for name in DIRECTIONS}


def _jet_values(jet, den, dirs, paths) -> list:
    """(numerator, denominator) of jet = (jden, values in JET_ORDERS order)
    after the derivatives along dirs[name] (vectors over den) for each of
    paths, () first and each prefix before its extensions.  A derivative
    along (ux, uy) lowers the order: (a, b) = ux J[a + 1, b] + uy J[a, b + 1]."""
    jden, partial = jet[0], {(): jet[1]}
    for path in paths[1:]:
        (ux, uy), prev = dirs[path[-1]], partial[path[:-1]]
        partial[path] = [ux * prev[i] + uy * prev[k] for i, k in _JET_STEPS[len(prev)]]
    return [(partial[path][0], jden * den ** len(path)) for path in paths]


def _univariate_rows(degree: int, conditions) -> list:
    """Rows of exact (t, derivative order o) conditions on the truncated
    powers (t - s)_+^m of an edge's degree-d splines with the knot 1/2
    doubled: s = 0 for m <= d and s = 1/2 for m = d - 1, d.  The o-th
    derivative of a term is m! / (m - o)! (t - s)^(m - o) for t >= s."""
    terms = [(0, m) for m in range(degree + 1)] + [(Fraction(1, 2), m) for m in (degree - 1, degree)]
    return [[perm(m, o) * (t - s) ** (m - o) if t >= s and o <= m else 0 for s, m in terms]
            for t, o in conditions]


@lru_cache(maxsize=1)
def _edge_rows() -> tuple:
    """Exact rows taking an edge's data to the values its functionals read.

    On an edge with parameter t, f is the tangential quintic spline, fixed
    by its derivatives of orders 0..3 at t = 0 and 1, and g the quartic
    spline of the cross derivative, fixed by its derivatives of orders 0..2
    at t = 0 and 1 and by g(1/2).  The f rows map those 8 values to f''(1/4),
    f'(1/2), f''(3/4); the g rows map the 7 values to g'(1/4), g'(3/4).
    Each set of rows comes as (rows, sparse_integer_matrix(rows)).  The
    read rows times the inverse of the fixing rows do not depend on the
    basis of the spline space, so both are taken on its truncated powers.
    """
    q, h, ends = Fraction(1, 4), Fraction(1, 2), (Fraction(0), Fraction(1))
    f_read, f_fixed = ((q, 2), (h, 1), (3 * q, 2)), [(t, o) for t in ends for o in range(4)]
    g_read, g_fixed = ((q, 1), (3 * q, 1)), [(t, o) for t in ends for o in range(3)] + [(h, 0)]
    # a read row times the inverse of the fixing conditions
    rows = [[mat_vec(list(zip(*inverse(_univariate_rows(d, fixed)))), row)
             for row in _univariate_rows(d, read)]
            for d, read, fixed in ((5, f_read, f_fixed), (4, g_read, g_fixed))]
    return tuple((tuple(map(tuple, r)), sparse_integer_matrix(r)) for r in rows)


def hermite_interpolate(tri: Triangulation, vertex_jets, edge_data) -> GlobalSpline:
    """Global spline matching vertex jets and edge cross derivatives.

    vertex_jets maps each vertex index to its ten Cartesian derivative
    values ordered like JET_ORDERS.  edge_data maps each sorted edge pair
    (a, b) to three values taken in the direction u = rot90(v_b - v_a):
    the second derivative at (3 v_a + v_b)/4, the first derivative at the
    midpoint, and the second derivative at (v_a + 3 v_b)/4.  The result is
    continuous with two continuous derivatives across interior edges and
    three at the vertices.  A jet is contracted once per prefix of
    directions.  Exact vertices and data give an exact result: each value
    an integer over a known denominator, a triangle's 39 over their lcm
    through sparse integer rows, integers until coeffs is first read.
    Missing data raise DimensionMismatch, values not exact or finite, and
    float coefficients that overflow, DomainError.
    """
    try:
        vertex_jets = {k: tuple(v) for k, v in vertex_jets.items()}
        edge_data = {tuple(sorted(k)): tuple(v) for k, v in edge_data.items()}
    except TypeError:
        raise DimensionMismatch("jets and edge data must be keyed sequences") from None
    if set(vertex_jets) != set(range(len(tri.vertices))) or set(edge_data) != set(tri.edges()) \
            or any(len(v) != 10 for v in vertex_jets.values()) \
            or any(len(v) != 3 for v in edge_data.values()):
        raise DimensionMismatch("need a 10-jet for every vertex and 3 values for every edge")
    unused = [tri.vertices[i] for i in set(range(len(tri.vertices))).difference(*tri.triangles)]
    values = [x for vals in (*unused, *vertex_jets.values(), *edge_data.values()) for x in vals]
    exact = is_exact(finite_numbers(values, "the vertices, jets and edge data")) \
        and all(frame._int_corners for frame in tri._frames)  # make_frame checked the others

    # a value as (numerator, denominator), over 1 unless exact
    pair, over_one = ((lambda x: (x.numerator, x.denominator)), _over_lcm) if exact else \
        ((lambda x: (x, 1)), (lambda pairs: (1, [x for x, _ in pairs])))
    jets = {i: over_one(list(map(pair, jet))) for i, jet in vertex_jets.items()}

    # per edge, over the global normal ug and tangent tg: the second normal,
    # mixed and tangential derivatives at each quarterpoint, and the first
    # normal and tangential derivatives at the midpoint, over one denominator
    edge_values = {}
    for (a, b), (d2q1, d1m, d2q2) in edge_data.items():
        va, vb = tri.vertices[a], tri.vertices[b]
        den, (tx, ty) = over_one([pair(vb.x - va.x), pair(vb.y - va.y)])
        dirs = {"t": (tx, ty), "n": (-ty, tx)}
        ends = [_jet_values(jets[v], den, dirs, _EDGE_PATHS) for v in (a, b)]
        f, g = ends[0][:4] + ends[1][:4], ends[0][4:] + ends[1][4:] + [pair(d1m)]
        (f_q1, f_m, f_q2), (g_q1, g_q2) = (
            _apply_rows(*sparse, xs) if exact else [(x, 1) for x in mat_vec(rows, [x for x, _ in xs])]
            for (rows, sparse), xs in zip(_edge_rows(), (f, g)))
        q, nums = over_one([pair(d2q1), g_q1, f_q1, pair(d1m), f_m, pair(d2q2), g_q2, f_q2])
        edge_values[a, b] = (dirs["t"], dirs["n"], den, q, nums[:3], nums[3:5], nums[5:])

    nodal = _nodal_integer() if exact else [
        (w, [(k, n, f) for k, (n, f) in enumerate(zip(col, fcol)) if f])
        for w, col, fcol in _nodal_float()]
    coeff_vectors = []
    for tri_idx, frame in zip(tri.triangles, tri._frames):
        # the nine directions on this triangle over one denominator (exact: twice the corners')
        if exact:
            e, corners, _ = frame._int_corners
            den, dirs = 2 * e, {name: tuple(sum(map(mul, t, xy)) for xy in zip(*corners))
                                for name, t in _DOUBLED_DIRECTIONS.items()}
        else:
            den, dirs = 1, direction_vectors(frame.corners)
        # the values in FUNCTIONALS order: each corner's jet functionals, then per edge q1, m, q2
        values = [x for c, v in enumerate(tri_idx, 1)
                  for x in _jet_values(jets[v], den, dirs, _CORNER_PATHS[c])]
        for name, (a_loc, _, b_loc) in EDGES.items():
            ga, gb = tri_idx[a_loc - 1], tri_idx[b_loc - 1]
            tg, ug, eden, q, near, (d1m, f_m), far = edge_values[min(ga, gb), max(ga, gb)]
            if ga > gb:     # the local q1 is the quarterpoint near ga
                near, far = far, near
            # the edge's direction u = s ug + w tg; exact, s = S / p and w = W / p, p < 0
            (ux, uy), det = dirs["u", name], ug[0] * tg[1] - ug[1] * tg[0]
            S, W = ux * tg[1] - uy * tg[0], ug[0] * uy - ug[1] * ux
            S, W, p = (S * eden, W * eden, den * det) if exact else (S / det, W / det, 1)
            d2u = [(S * S * d2 + 2 * S * W * g1 + W * W * f2, p * p * q)
                   for d2, g1, f2 in (near, far)]
            values += [d2u[0], (S * d1m + W * f_m, p * q), d2u[1]]
        if exact:
            den, v = _over_lcm(values)
            ints = (den * nodal[0], sparse_mat_vec(nodal[1], v))
            coeff_vectors.append(_unchecked(Spline, frame=frame, basis="c", _int_coeffs=ints))
            continue
        # left to right over the nonzero terms (sum() compensates from 3.12); float * Fraction
        # is float * float(Fraction), so floats take the float entries, exact values the exact
        values = [x for x, _ in values]
        coeffs = tuple(reduce(add, (values[k] * (f if type(values[k]) is float else n)
                                    for k, n, f in nz if values[k]), 0.0) / w for w, nz in nodal)
        if not all(map(isfinite, coeffs)):  # Spline's one check that can fail here
            raise DomainError("the coefficients must be finite numbers")
        coeff_vectors.append(_unchecked(Spline, frame=frame, basis="c", coeffs=coeffs))
    return _unchecked(GlobalSpline, tri=tri, basis="c", _splines=dict(enumerate(coeff_vectors)))


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
