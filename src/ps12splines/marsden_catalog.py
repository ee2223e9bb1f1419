"""Canonical data for the six bases and the dual-polynomial machinery.

Each basis is stored as one row per symmetry class: the weight and the five
dual points (as split-vertex indices, so e.g. (1, 1, 2, 4, 4) encodes the
dual product c1^2 c2 c4^2).  Symmetry completion produces all 39 elements;
the domain point of an element is the average of its dual points.  The
embedded data is the runtime source; the search pipeline re-derives it in
the test suite.

Element order: decreasing number of knots on the edge [v1, v2], then m1
descending, then m4 descending, then the multiplicity vector itself.  The 25
elements with nonzero derivative restrictions on that edge come first, in
the row order of the restriction tables; the remaining 14 are fixed
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import DimensionMismatch, DomainError, UnknownBasis
from .geometry import (PS12Frame, Point2, S3_ELEMENTS, VERTEX_BARY, _bary, _frame, from_bary,
                       reference_frame, s3_apply_multiset, s3_vertex_permutation)
from .simplex_spline import knots

BASIS_IDS = ("a", "b", "c", "d", "e", "f")

#: Per basis: representative knot vector -> (weight, dual point vertex ids).
CATALOG_ROWS = {
    "a": {
        "600101": (Fraction(1, 4), (1, 1, 1, 1, 1)),
        "500201": (Fraction(1, 4), (1, 1, 1, 1, 4)),
        "410201": (Fraction(1, 2), (1, 1, 1, 4, 4)),
        "320201": (Fraction(1, 2), (1, 1, 2, 4, 4)),
        "141110": (Fraction(1), (2, 2, 2, 4, 5)),
        "222110": (Fraction(3, 4), (1, 2, 2, 3, 10)),
        "131210": (Fraction(1, 2), (1, 2, 2, 4, 5)),
        "221210": (Fraction(3, 4), (1, 2, 2, 4, 10)),
    },
    "b": {
        "600101": (Fraction(1, 4), (1, 1, 1, 1, 1)),
        "500201": (Fraction(1, 4), (1, 1, 1, 1, 4)),
        "410201": (Fraction(1, 2), (1, 1, 1, 4, 4)),
        "320201": (Fraction(1, 2), (1, 1, 2, 4, 4)),
        "141110": (Fraction(1), (2, 2, 2, 4, 5)),
        "221111": (Fraction(3, 4), (1, 2, 3, 4, 10)),
        "131210": (Fraction(1, 2), (1, 2, 2, 4, 5)),
        "221210": (Fraction(3, 4), (1, 2, 2, 4, 10)),
    },
    "c": {
        "600101": (Fraction(1, 4), (1, 1, 1, 1, 1)),
        "500201": (Fraction(1, 4), (1, 1, 1, 1, 4)),
        "410201": (Fraction(1, 2), (1, 1, 1, 4, 4)),
        "320201": (Fraction(1, 2), (1, 1, 2, 4, 4)),
        "220211": (Fraction(3, 4), (1, 2, 4, 4, 10)),
        "141110": (Fraction(1), (2, 2, 2, 4, 5)),
        "131210": (Fraction(1, 2), (1, 2, 2, 4, 5)),
        "121211": (Fraction(3, 4), (1, 2, 4, 5, 10)),
    },
    "d": {
        "600101": (Fraction(1, 4), (1, 1, 1, 1, 1)),
        "500201": (Fraction(1, 4), (1, 1, 1, 1, 4)),
        "410201": (Fraction(1, 2), (1, 1, 1, 4, 4)),
        "321200": (Fraction(1), (1, 1, 2, 4, 4)),
        "141110": (Fraction(1), (2, 2, 2, 4, 5)),
        "222110": (Fraction(3, 4), (1, 2, 2, 3, 10)),
        "131210": (Fraction(1, 2), (1, 2, 2, 4, 5)),
        "221210": (Fraction(1, 4), (1, 2, 2, 3, 4)),
    },
    "e": {
        "600101": (Fraction(1, 4), (1, 1, 1, 1, 1)),
        "500201": (Fraction(1, 4), (1, 1, 1, 1, 4)),
        "410201": (Fraction(1, 2), (1, 1, 1, 4, 4)),
        "321200": (Fraction(1), (1, 1, 2, 4, 4)),
        "141110": (Fraction(1), (2, 2, 2, 4, 5)),
        "221111": (Fraction(3, 4), (1, 2, 3, 4, 10)),
        "131210": (Fraction(1, 2), (1, 2, 2, 4, 5)),
        "221210": (Fraction(1, 4), (1, 2, 2, 3, 4)),
    },
    "f": {
        "600101": (Fraction(1, 4), (1, 1, 1, 1, 1)),
        "500201": (Fraction(1, 4), (1, 1, 1, 1, 4)),
        "410201": (Fraction(1, 2), (1, 1, 1, 4, 4)),
        "321200": (Fraction(1), (1, 1, 2, 4, 4)),
        "220211": (Fraction(1, 4), (1, 2, 3, 4, 4)),
        "141110": (Fraction(1), (2, 2, 2, 4, 5)),
        "131210": (Fraction(1, 2), (1, 2, 2, 4, 5)),
        "121211": (Fraction(1, 2), (1, 2, 3, 4, 8)),
    },
}


def linear_product(scalar, forms) -> dict:
    """scalar * prod_r (f_r . x) for coefficient triples f_r, as a form.

    Every symbolic polynomial of the library is a homogeneous form in three
    variables, an {(i, j, k): Fraction} dict of its nonzero terms: the dual
    polynomials in (c1, c2, c3), the edge restriction tables in the
    directional coordinates (a1, a2, a3), free of a1, and the smoothness
    relations in (b1, b2, b3).  Its value at (1, 1, 1) is sum(form.values()).
    The coefficients are of the input's kind: ints for an int scalar and
    int forms, Fractions when any input is one.
    """
    out = {(0, 0, 0): scalar} if scalar else {}
    for form in forms:
        nxt = {}
        for (i, j, k), c in out.items():
            for e, a in zip(((i + 1, j, k), (i, j + 1, k), (i, j, k + 1)), form):
                if a:
                    nxt[e] = nxt.get(e, 0) + c * a
        out = {e: c for e, c in nxt.items() if c}
    return out


@dataclass(frozen=True)
class BasisElement:
    """One basis function S = w * Q[K] with its dual data."""

    multiset: tuple
    weight: Fraction
    dual_points: tuple        # 5 barycentric triples, sorted
    domain_point: tuple       # barycentric triple
    class_label: str

    def dual_product(self) -> dict:
        """The exact form w * prod_r (dual point . c)."""
        return linear_product(self.weight, self.dual_points)


@dataclass(frozen=True)
class BasisSpec:
    """An ordered 39-element basis with weights and dual data."""

    id: str
    elements: tuple

    def index_of(self, K) -> int:
        K = knots(K)
        for i, el in enumerate(self.elements):
            if el.multiset == K:
                return i
        raise DomainError(f"multiset {K} not in basis {self.id}")

    @property
    def multisets(self) -> tuple:
        return tuple(el.multiset for el in self.elements)

    @property
    def weights(self) -> tuple:
        return tuple(el.weight for el in self.elements)

    @property
    def domain_points(self) -> tuple:
        return tuple(el.domain_point for el in self.elements)


def element_sort_key(K: tuple):
    """Canonical order: knots on [v1, v2] desc, then m1 desc, m4 desc, lex."""
    return (-(K[0] + K[1] + K[3]), -K[0], -K[3], K)


@lru_cache(maxsize=None)
def catalog(basis_id: str) -> BasisSpec:
    """The stored basis for an id in a..f, completed over the symmetry group.

    Raises UnknownBasis for other ids.  Completion is checked for
    consistency: whenever two symmetries produce the same element, their
    transported dual data must agree.
    """
    if basis_id not in CATALOG_ROWS:
        raise UnknownBasis(basis_id)
    members = {}
    for rep_label, (weight, dual_ids) in CATALOG_ROWS[basis_id].items():
        rep = knots(rep_label)
        for sigma in S3_ELEMENTS:
            perm = s3_vertex_permutation(sigma)
            K = s3_apply_multiset(sigma, rep)
            duals = tuple(sorted(VERTEX_BARY[perm[d - 1] - 1] for d in dual_ids))
            if K in members:
                if members[K][:2] != (weight, duals):
                    raise AssertionError(f"symmetry-inconsistent dual data at {K}")
            else:
                members[K] = (weight, duals, rep_label)
    if len(members) != 39:
        raise AssertionError(f"basis {basis_id} completed to {len(members)} elements")
    elements = []
    for K in sorted(members, key=element_sort_key):
        weight, duals, label = members[K]
        dom = tuple(sum(p[i] for p in duals) / 5 for i in range(3))
        elements.append(BasisElement(K, weight, duals, dom, label))
    return BasisSpec(basis_id, tuple(elements))


# ---------------------------------------------------------------------------
# Identities and reproduction
# ---------------------------------------------------------------------------

def marsden_eval(spec: BasisSpec, x: Point2, c, frame: PS12Frame = None):
    """Both sides of the degree-5 reproduction identity at (x, c).

    Returns (lhs, rhs) with lhs = (b1 c1 + b2 c2 + b3 c3)^5 for the
    barycentric coordinates b of x, and rhs = sum_i w_i Q_i(x) Psi_i(c),
    the w_i Q_i read at geometry._bary's integers (spline_fn.basis_values).
    They agree exactly for exact inputs; OutsideDomain outside the triangle.
    """
    from .spline_fn import _basis_values     # spline_fn imports this module
    if len(x) != 2 or len(c) != 3:
        raise DimensionMismatch("marsden_eval needs a point (x, y) and c = (c1, c2, c3)")
    d, n = _bary(reference_frame() if frame is None else _frame(frame), x)
    (c1, c2, c3), (b1, b2, b3) = c, n if d is None else (Fraction(k, d) for k in n)
    lhs = (b1 * c1 + b2 * c2 + b3 * c3) ** 5
    rhs = 0
    for el, s in zip(spec.elements, _basis_values(spec.id, d, n)):
        if s:
            for p in el.dual_points:
                s = s * (p[0] * c1 + p[1] * c2 + p[2] * c3)
            rhs += s
    return lhs, rhs


def bernstein_expansion(spec: BasisSpec, i1: int, i2: int, i3: int) -> tuple:
    """Coefficients a_i with sum_i a_i Q_i equal to the Bernstein polynomial
    (5! / (i1! i2! i3!)) b1^i1 b2^i2 b3^i3; DomainError unless the exponents
    are nonnegative ints summing to 5."""
    exps = (i1, i2, i3)
    if not all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in exps) \
            or sum(exps) != 5:
        raise DomainError(f"exponents must be nonnegative ints summing to 5: {exps}")
    return tuple(el.dual_product().get(exps, Fraction(0)) for el in spec.elements)


#: Coefficients k^5/5! (-1)^(k-1) of the size-k subset sums in the
#: quasi-interpolation functional.
_QI_COEF = tuple(Fraction(k**5 * (-1) ** (k - 1), factorial(5)) for k in range(1, 6))


def quasi_interpolant_coeffs(spec: BasisSpec, f, frame: PS12Frame = None) -> list:
    """Coefficients L_i(f) of the order-6 quasi-interpolant of f.

    f is any callable of (x, y); only point values enter.  Exact when f
    returns Fractions at rational points.  The resulting spline
    sum_i L_i(f) S_i reproduces every polynomial of degree at most 5.
    """
    frame = reference_frame() if frame is None else _frame(frame)
    out = []
    for el in spec.elements:
        total = 0
        for k in range(1, 6):
            coef = _QI_COEF[k - 1]
            for sub in combinations(el.dual_points, k):
                mean = tuple(sum(p[i] for p in sub) / k for i in range(3))
                total += coef * f(*from_bary(frame, mean))
        out.append(total)
    return out


def quasi_interpolant_bound() -> Fraction:
    """Absolute coefficient sum of each L_i: the operator norm bound 275/3."""
    from math import comb
    return sum(abs(_QI_COEF[k - 1]) * comb(5, k) for k in range(1, 6))

