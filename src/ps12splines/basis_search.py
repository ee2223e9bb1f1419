"""Classification and search for the symmetric quintic simplex-spline bases.

The search enumerates all C^3 quintic knot vectors on the split that reduce
to a B-spline on the boundary (99 splines in 20 symmetry classes), assembles
the symmetric 39-element candidate sets (boundary classes are forced up to a
choice of one class per covered B-spline pair, interior classes fill the
remaining 18 slots), and filters:

    3648 candidates
    -> full collocation rank          (1024)
    -> nonnegative partition of unity (243)
    -> strictly positive weights      (47)
    -> all domain points inside       (9)
    -> 8 domain points per edge       (7)
    -> dual polynomials split into real linear factors (6)

Everything is exact.  Each spline's 39 functional values are read once and
cached as an integer row with its scale; the rank filter, the weights and
the dual polynomials all eliminate those integer rows fraction-free
(``linalg``), so weights and dual-polynomial coefficients come out as exact
rationals without Gauss-Jordan elimination over ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .dual_functionals import build_lambda, lambda_vector
from .errors import SingularSystem
from .geometry import (
    S3_ELEMENTS,
    VERTEX_BARY,
    direction_coords,
    reference_frame,
    s3_apply_multiset,
    to_bary,
)
from .linalg import _integer_rows, bareiss, solve
from .polynomial import TriPoly
from .simplex_spline import active_indices, hull_area, knot_label, knots

#: Canonical names for the 20 admissible classes, keyed by a representative.
CLASS_REPRESENTATIVES = {
    "a": "600101", "b": "500201", "c": "501200", "d": "410102", "e": "410201",
    "f": "320201", "g": "220211", "h": "422000", "i": "332000", "j": "412100",
    "k": "322100", "l": "141110", "m": "132110", "n": "222110", "o": "221111",
    "p": "411200", "q": "321200", "r": "131210", "s": "221210", "t": "121211",
}

#: Class content of the six surviving bases.
BASIS_CLASS_CONTENT = {
    "a": frozenset("abeflnrs"),
    "b": frozenset("abeflors"),
    "c": frozenset("abefglrt"),
    "d": frozenset("abelnqrs"),
    "e": frozenset("abeloqrs"),
    "f": frozenset("abeglqrt"),
}

@dataclass(frozen=True)
class S3Class:
    """A symmetry orbit of admissible splines."""

    label: str
    representative: tuple
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CandidateBasis:
    """A symmetric 39-element candidate, tracked by its class labels."""

    multisets: tuple          # 39 multiplicity vectors, sorted
    boundary_labels: tuple
    interior_labels: tuple

    @property
    def labels(self) -> frozenset:
        return frozenset(self.boundary_labels) | frozenset(self.interior_labels)


def _interior_pair_ok(m) -> bool:
    pairs = ((0, 4), (2, 3), (1, 5), (3, 5), (3, 4), (4, 5))
    return all(not (m[i] and m[j] and m[i] + m[j] > 3) for i, j in pairs)


def _boundary_bspline_ok(m) -> bool:
    for i, j, k in ((0, 3, 1), (1, 4, 2), (0, 5, 2)):
        if m[i] + m[j] + m[k] == 7:
            if m[j] >= 3:
                return False
            if m[i] and m[k] and m[j] != 2:
                return False
    return True


@lru_cache(maxsize=1)
def enumerate_admissible() -> tuple:
    """The 20 symmetry classes of admissible quintic simplex splines.

    Admissible: |K| = 8, no knots on the inner vertices, at most three knots
    on every interior line carrying at least two distinct knots, boundary
    restrictions equal to (scaled) B-splines of the open knot vector, and a
    nondegenerate support.
    """
    found = []
    for m6 in product(range(9), repeat=6):
        if sum(m6) != 8:
            continue
        if not (_interior_pair_ok(m6) and _boundary_bspline_ok(m6)):
            continue
        K = m6 + (0, 0, 0, 0)
        if hull_area(active_indices(K)) == 0:
            continue
        found.append(K)
    by_rep = {}
    for label, rep in CLASS_REPRESENTATIVES.items():
        by_rep[knots(rep)] = label
    classes = []
    seen = set()
    for K in sorted(found):
        if K in seen:
            continue
        orbit = tuple(sorted({s3_apply_multiset(s, K) for s in S3_ELEMENTS}))
        seen.update(orbit)
        label = next((by_rep[m] for m in orbit if m in by_rep), None)
        if label is None:
            raise AssertionError(f"enumerated class without a name: {knot_label(K)}")
        rep = knots(CLASS_REPRESENTATIVES[label])
        classes.append(S3Class(label=label, representative=rep, members=orbit))
    if sorted(c.label for c in classes) != sorted(CLASS_REPRESENTATIVES):
        raise AssertionError("admissible classes do not match the expected twenty")
    return tuple(sorted(classes, key=lambda c: c.label))


def _edge_bspline_indices(cls: S3Class) -> frozenset:
    """Which boundary B-spline indices the class members produce on one edge."""
    out = set()
    for m in cls.members:
        if m[0] + m[3] + m[1] == 7:  # knots on [v1, v2]
            from .bspline1d import ref_from_counts
            ref = ref_from_counts(5, m[0], m[3], m[1])
            if ref is not None:
                out.add(ref.index)
    return frozenset(out)


@lru_cache(maxsize=1)
def enumerate_candidates() -> tuple:
    """All symmetric 39-element candidates built from whole classes."""
    classes = enumerate_admissible()
    boundary = [c for c in classes if _edge_bspline_indices(c)]
    interior = [c for c in classes if not _edge_bspline_indices(c)]
    groups = {}
    for c in boundary:
        groups.setdefault(_edge_bspline_indices(c), []).append(c)
    combos = []
    for choice in product(*groups.values()):
        size = sum(c.size for c in choice)
        combos.append((choice, size))
    out = []
    for choice, bsize in sorted(combos, key=lambda t: tuple(c.label for c in t[0])):
        need = 39 - bsize
        for k in range(len(interior) + 1):
            for sel in combinations(interior, k):
                if sum(c.size for c in sel) == need:
                    multisets = []
                    for c in choice + sel:
                        multisets.extend(c.members)
                    out.append(CandidateBasis(
                        multisets=tuple(sorted(multisets)),
                        boundary_labels=tuple(c.label for c in choice),
                        interior_labels=tuple(c.label for c in sel)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact rank / solve helpers on the collocation table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _int_lambda_row(K: tuple, variant: str) -> tuple:
    """lambda row of Q[K] scaled to integers, plus the scale factor."""
    (row,), (den,) = _integer_rows([lambda_vector(K, variant)])
    return tuple(row), den


def candidate_has_full_rank(cand: CandidateBasis) -> bool:
    rows = [list(_int_lambda_row(K, "canonical")[0]) for K in cand.multisets]
    return bareiss(rows)[1] != 0


@lru_cache(maxsize=None)
def _lambda_one_vector(variant: str) -> tuple:
    """Functional values of the constant 1, one single-column row each."""
    return tuple((int(lam.order == 0),) for lam in build_lambda(reference_frame(), variant))


def _solve_collocation(multisets, rhs, variant: str) -> list:
    """Solve sum_i x_i lambda_j(Q_i) = rhs_j for the rows x_i.

    The system is assembled from the integer lambda rows: column i holds
    den_i * lambda(Q_i), so solution row i is scaled back by den_i.
    """
    scaled = [_int_lambda_row(K, variant) for K in multisets]
    A = [list(col) for col in zip(*(row for row, _ in scaled))]
    sol = solve(A, rhs)
    return [[x * den for x in xi] for xi, (_, den) in zip(sol, scaled)]


def _multisets(cand) -> tuple:
    return cand.multisets if isinstance(cand, CandidateBasis) else tuple(knots(K) for K in cand)


def compute_weights(cand, variant: str = "canonical") -> tuple:
    """Unique weights with sum_i w_i Q_i = 1, in the candidate's order.

    Accepts a CandidateBasis or a plain sequence of multisets.  Raises
    SingularSystem when the candidate is not a basis.  The result does not
    depend on the functional direction choices; variant='alternate' exists
    so tests can confirm that.
    """
    sol = _solve_collocation(_multisets(cand), _lambda_one_vector(variant), variant)
    return tuple(x[0] for x in sol)


#: The 21 monomial exponents of a ternary quintic, one column each in the
#: right-hand side of the dual-polynomial solve.
QUINTIC_MONOMIALS = tuple((i, j, 5 - i - j) for i in range(5, -1, -1)
                          for j in range(5 - i, -1, -1))


@lru_cache(maxsize=None)
def _marsden_rhs(variant: str) -> tuple:
    """Functional values of (b1 c1 + b2 c2 + b3 c3)^5 as polynomials in c,
    one row of QUINTIC_MONOMIALS coefficients per functional."""
    frame = reference_frame()
    out = []
    for lam in build_lambda(frame, variant):
        beta = to_bary(frame, lam.point)
        base = TriPoly.linear(beta)
        poly = TriPoly.const(1)
        k = lam.order
        for r in range(5, 5 - k, -1):
            poly = poly * r
        for u in lam.directions:
            poly = poly * TriPoly.linear(direction_coords(frame.v[:3], u))
        for _ in range(5 - k):
            poly = poly * base
        out.append(tuple(poly.coefficient(e) for e in QUINTIC_MONOMIALS))
    return tuple(out)


def compute_dual_polys(cand, weights=None, variant: str = "canonical") -> tuple:
    """The products w_i * Psi_i as exact homogeneous quintics in (c1, c2, c3).

    Solves the collocation system with the quintic power functional values on
    the right-hand side; setting c1 = c2 = c3 = 1 in entry i recovers w_i.
    """
    sol = _solve_collocation(_multisets(cand), _marsden_rhs(variant), variant)
    out = tuple(TriPoly(zip(QUINTIC_MONOMIALS, xi)) for xi in sol)
    if weights is not None:
        for w, poly in zip(weights, out):
            if poly.evaluate(1, 1, 1) != w:
                raise SingularSystem("dual polynomials inconsistent with weights")
    return out


def domain_point(w_psi: TriPoly) -> tuple:
    """Barycentric domain point of a dual product: grad at (1,1,1) / (5 w)."""
    w = w_psi.evaluate(1, 1, 1)
    g = w_psi.gradient_at_ones()
    return tuple(x / (5 * w) for x in g)


# ---------------------------------------------------------------------------
# Splitting dual polynomials into linear factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFactorization:
    """Outcome of factoring a dual product into real linear forms.

    When split is True and the factors are rational, ``forms`` holds the five
    barycentric triples normalized to sum 1 and ``scalar`` the leftover
    weight.  A real split through irrational quadratic roots sets split=True
    with forms=None.  ``diagnostic`` names the obstruction otherwise.
    """

    split: bool
    scalar: Fraction = Fraction(0)
    forms: tuple = None
    diagnostic: str = ""


def split_linear_factors(poly: TriPoly) -> LinearFactorization:
    """Factor a homogeneous quintic into five real linear forms, if possible.

    Strategy: repeated exact trial division by the ten shorthand forms (this
    resolves every dual product of the surviving bases), then exact rational
    factorization of whatever remains: rational linear factors are accepted,
    quadratic factors are accepted exactly when their symmetric matrix is
    singular with indefinite or rank-one nonzero part, and any irreducible
    factor of higher degree rejects the split.
    """
    if not poly.is_homogeneous() or poly.degree() != 5 or not poly:
        return LinearFactorization(False, diagnostic="not a nonzero homogeneous quintic")
    forms = []
    rem = poly
    progress = True
    while progress and rem.degree() > 0:
        progress = False
        for triple in VERTEX_BARY:
            quo = rem.divide_by_linear(triple)
            if quo is not None:
                forms.append(triple)
                rem = quo
                progress = True
                break
    if rem.degree() == 0:
        return LinearFactorization(True, scalar=rem.evaluate(1, 1, 1),
                                   forms=tuple(sorted(forms, reverse=True)))
    return _split_general(poly, forms, rem)


def _split_general(poly, forms, rem):
    import sympy

    c1, c2, c3 = sympy.symbols("c1 c2 c3")
    expr = sympy.Integer(0)
    for (i, j, k), coef in rem.terms.items():
        expr += sympy.Rational(coef.numerator, coef.denominator) * c1**i * c2**j * c3**k
    _, factors = sympy.factor_list(sympy.Poly(expr, c1, c2, c3))
    rational_ok = True
    for fac, mult in factors:
        fp = sympy.Poly(fac, c1, c2, c3)
        deg = fp.total_degree()
        if deg == 1:
            a = [Fraction(str(fp.coeff_monomial(v))) for v in (c1, c2, c3)]
            s = sum(a)
            if s == 0:
                return LinearFactorization(False, diagnostic=f"linear factor at infinity: {fac}")
            forms.extend([tuple(x / s for x in a)] * mult)
            continue
        rational_ok = False
        if deg == 2:
            if not _quadratic_splits_real(fp, (c1, c2, c3)):
                return LinearFactorization(False, diagnostic=f"definite quadratic factor: {fac}")
            continue
        return LinearFactorization(False, diagnostic=f"irreducible factor of degree {deg}: {fac}")
    if rational_ok:
        scalar = poly.evaluate(1, 1, 1)
        return LinearFactorization(True, scalar=scalar, forms=tuple(sorted(forms, reverse=True)))
    return LinearFactorization(True, scalar=poly.evaluate(1, 1, 1), forms=None,
                               diagnostic="real split with irrational factors")


def _quadratic_splits_real(fp, syms) -> bool:
    """A ternary quadratic is a product of two real linear forms iff its
    symmetric matrix is singular and its rank-2 part indefinite."""
    import sympy

    c1, c2, c3 = syms
    a = [[None] * 3 for _ in range(3)]
    mono = [c1, c2, c3]
    for i in range(3):
        for j in range(3):
            coef = fp.coeff_monomial(mono[i] * mono[j]) if i != j else fp.coeff_monomial(mono[i] ** 2)
            coef = sympy.Rational(coef)
            a[i][j] = coef if i == j else coef / 2
    det3 = sympy.Matrix(a).det()
    if det3 != 0:
        return False
    e2 = sum(a[i][i] * a[j][j] - a[i][j] * a[j][i]
             for i in range(3) for j in range(i + 1, 3))
    return e2 <= 0


# ---------------------------------------------------------------------------
# The filter pipeline
# ---------------------------------------------------------------------------

PIPELINE_STAGES = ("candidates", "full_rank", "nonnegative", "positive",
                   "domain_inside", "boundary_counts", "linear_factors")


@dataclass
class SurvivorBasis:
    """Full derived data for one candidate that survived all filters."""

    basis_id: str
    labels: tuple
    multisets: tuple
    weights: tuple
    dual_products: tuple      # TriPoly, aligned with multisets
    dual_points: tuple        # per element: 5 barycentric triples
    domain_points: tuple


@dataclass
class SearchReport:
    """Stage counts and survivors of the candidate filter pipeline."""

    counts: dict = field(default_factory=dict)
    survivors: list = field(default_factory=list)
    stage: str = "linear_factors"


def _domain_points_inside(points) -> bool:
    """All 39 domain points in the closed macrotriangle and pairwise distinct.

    Distinctness is part of the criterion: the domain points anchor the
    control net and the Lagrange interpolation nodes, so a candidate whose
    elements share a domain point is degenerate even when every point lies
    in the triangle.  (Closed containment alone admits 26 of the 47
    positive-weight candidates; requiring distinct points as well leaves
    exactly the 9 that continue through the remaining filters.)
    """
    return len(set(points)) == len(points) and \
        all(all(b >= 0 for b in xi) for xi in points)


def _boundary_point_counts(points) -> tuple:
    """Number of domain points on each macro edge (closed)."""
    counts = [0, 0, 0]
    for xi in points:
        if any(b < 0 for b in xi):
            continue
        if xi[2] == 0:
            counts[0] += 1  # edge [v1, v2]
        if xi[0] == 0:
            counts[1] += 1  # edge [v2, v3]
        if xi[1] == 0:
            counts[2] += 1  # edge [v3, v1]
    return tuple(counts)


def _identify_basis(labels: frozenset) -> str:
    for bid, content in BASIS_CLASS_CONTENT.items():
        if labels == content:
            return bid
    return ""


def filter_pipeline(candidates=None, stage: str = "linear_factors") -> SearchReport:
    """Run the filters in order, recording the count after each stage.

    ``stage`` may name an earlier stage to stop at.
    """
    if stage not in PIPELINE_STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    last = PIPELINE_STAGES.index(stage)
    report = SearchReport(stage=stage)
    cands = list(enumerate_candidates() if candidates is None else candidates)
    report.counts["candidates"] = len(cands)
    if last < 1:
        return report

    cands = [c for c in cands if candidate_has_full_rank(c)]
    report.counts["full_rank"] = len(cands)
    if last < 2:
        return report

    weighted = [(c, compute_weights(c)) for c in cands]
    weighted = [(c, w) for c, w in weighted if all(x >= 0 for x in w)]
    report.counts["nonnegative"] = len(weighted)
    if last < 3:
        return report

    weighted = [(c, w) for c, w in weighted if all(x > 0 for x in w)]
    report.counts["positive"] = len(weighted)
    if last < 4:
        return report

    dualized = []
    for c, w in weighted:
        polys = compute_dual_polys(c, weights=w)
        points = tuple(domain_point(p) for p in polys)
        dualized.append((c, w, polys, points))
    dualized = [t for t in dualized if _domain_points_inside(t[3])]
    report.counts["domain_inside"] = len(dualized)
    if last < 5:
        return report

    dualized = [t for t in dualized if _boundary_point_counts(t[3]) == (8, 8, 8)]
    report.counts["boundary_counts"] = len(dualized)
    if last < 6:
        return report

    for c, w, polys, points in dualized:
        facts = [split_linear_factors(p) for p in polys]
        if not all(f.split for f in facts):
            continue
        dual_points = tuple(f.forms for f in facts)
        report.survivors.append(SurvivorBasis(
            basis_id=_identify_basis(c.labels),
            labels=tuple(sorted(c.labels)),
            multisets=c.multisets,
            weights=w,
            dual_products=polys,
            dual_points=dual_points,
            domain_points=points))
    report.survivors.sort(key=lambda s: s.basis_id)
    report.counts["linear_factors"] = len(report.survivors)
    return report
