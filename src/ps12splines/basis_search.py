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

Everything is exact: every elimination is fraction-free (``linalg``), every
polynomial is a ``TriPoly``, and the last filter accepts only an explicit
split and rejects only on a certificate (``split_linear_factors``).
A candidate is a union of S3 orbits, so its 39x39 collocation matrix
commutes with the symmetry and splits into isotypic blocks (Fassler-Stiefel):
over the 99 splines the trivial, sign and standard blocks have dimensions 8,
5 and 13, and 8 + 5 + 2*13 = 39.  The block tables are built once, after
an exact check that the lambda rows transform linearly under S3.  A
candidate has full rank iff it gives exactly 8, 5 and 13 independent block
rows; one elimination over the trie of the candidates' class labels decides
a whole batch, and gives each basis its weights, which are constant on
classes because S3 fixes the constant 1.

The domain points come from linear reproduction: differentiating the
Marsden identity (b.c)^5 = sum_i w_i Psi_i(c) Q_i(b) in c_j at c = 1 gives
5 b_j = sum_i 5 w_i xi_ij Q_i(b).  The unknowns x_i = 5 w_i xi_i are
S3-equivariant, and their coordinate sum 5 w_i is known, so what is left is
the zero-sum part of the first coordinate: 13 unknowns, 2 per class of six
and 1 per class of three, solved from 13 of the 39 collocation equations and
checked exactly on the other 26.  The dual polynomials solve the 39x39
system of the integer lambda rows; the pipeline forms them only for the
candidates that pass the boundary counts.  One right-hand-side table serves
every solve: the functional values of the Marsden polynomial (b.c)^5, whose
value at c = (1, 1, 1) is the constant 1 and whose c1-derivative there is
5 b1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import isqrt, lcm
from operator import add, ne

from .dual_functionals import build_lambda, lambda_vector
from .errors import (DimensionMismatch, DomainError, PS12Error, SingularSystem,
                     SymmetryViolated)
from .geometry import (
    S3_ELEMENTS,
    VERTEX_BARY,
    direction_coords,
    reference_frame,
    s3_apply_bary,
    s3_apply_multiset,
    to_bary,
)
from .linalg import _integer_rows, append_row, pivot_columns, reduce_row, solve
from .linalg import bareiss  # noqa: F401  (perfbench/tracer.py wraps this name)
from .marsden_catalog import CATALOG_ROWS
from .polynomial import TriPoly
from .simplex_spline import active_indices, hull_area, knot_label, knots

#: Canonical names for the 20 admissible classes, keyed by a representative.
CLASS_REPRESENTATIVES = {
    "a": "600101", "b": "500201", "c": "501200", "d": "410102", "e": "410201",
    "f": "320201", "g": "220211", "h": "422000", "i": "332000", "j": "412100",
    "k": "322100", "l": "141110", "m": "132110", "n": "222110", "o": "221111",
    "p": "411200", "q": "321200", "r": "131210", "s": "221210", "t": "121211",
}

#: Class content of the six surviving bases, read off the catalog rows,
#: which are keyed by the class representatives.
BASIS_CLASS_CONTENT = {
    bid: frozenset(label for label, rep in CLASS_REPRESENTATIVES.items() if rep in rows)
    for bid, rows in CATALOG_ROWS.items()
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
    for bars in combinations(range(13), 5):     # six counts summing to 8: stars and bars
        m6 = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (13,)))
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
# S3 isotypic blocks of the collocation table
# ---------------------------------------------------------------------------

#: The transpositions t = (12) and u = (13) that generate S3.
_T, _U = (2, 1, 3), (3, 2, 1)


@dataclass(frozen=True)
class _IsotypicBlocks:
    """The lambda rows of the 99 admissible splines split by S3 isotypic type.

    ``rows[label]`` holds the class's (trivial, sign, standard) rows: its
    class sum, its signed orbit sum (size-6 classes only) and an independent
    subset of its Young-symmetrizer images (1 + t)(1 - u) Q_K.  Each block is
    restricted to ``dims[k]`` pivot columns on which it is injective and each
    row is scaled to integers; ``trivial_scales`` holds the trivial rows'
    scales, and ``one`` the values of the constant 1 on the trivial columns
    as integers over ``one_scale``.
    """

    dims: tuple
    rows: dict
    trivial_scales: dict
    one: tuple
    one_scale: int


def _combine(rows, signs) -> list:
    return [sum(s * x for s, x in zip(signs, col)) for col in zip(*rows)]


def _check_linear_action(lam: dict, basis: tuple, one: list) -> None:
    """The basis coordinates of every lambda row permute under t and u as
    the basis does, and those of the constant 1 stay fixed; raises
    SymmetryViolated if not.

    This is the premise of the block decomposition: the lambda rows
    transform linearly under S3 and S3 fixes the constant 1.  One exact
    solve gives all coordinates.
    """
    others = [K for K in lam if K not in basis]
    rhs = [list(col) + [o] for col, o in zip(zip(*(lam[K] for K in others)), one)]
    sol = solve([list(col) for col in zip(*(lam[K] for K in basis))], rhs)
    # the basis rows have unit coordinates, which permute by construction
    coords = {K: tuple(x[k] for x in sol) for k, K in enumerate(others)}
    weights = tuple(x[-1] for x in sol)
    index = {K: i for i, K in enumerate(basis)}
    for sigma in (_T, _U):
        # sigma is an involution, so the coordinates of sigma(Q) must be
        # those of Q read at the images of the basis elements
        image = [index[s3_apply_multiset(sigma, B)] for B in basis]

        def moved(a):
            return tuple(a[j] for j in image)

        for K, a in coords.items():
            if moved(a) != coords[s3_apply_multiset(sigma, K)]:
                raise SymmetryViolated(f"basis coordinates of {knot_label(K)} do not "
                                       f"permute under {sigma}")
        if moved(weights) != weights:
            raise SymmetryViolated(f"basis coordinates of the constant 1 do not "
                                   f"permute under {sigma}")


@lru_cache(maxsize=1)
def _isotypic_blocks() -> _IsotypicBlocks:
    """The block tables, built on first use."""
    classes = enumerate_admissible()
    lam = {K: lambda_vector(K) for cls in classes for K in cls.members}
    one = [o for (o,) in _lambda_one_vector()]
    basis = tuple(K for cls in classes if cls.label in BASIS_CLASS_CONTENT["c"]
                  for K in cls.members)
    _check_linear_action(lam, basis, one)
    per_class = {}
    for cls in classes:
        trivial = [_combine([lam[K] for K in cls.members], [1] * cls.size)]
        # S3_ELEMENTS lists the even permutations first; a size-3 orbit is
        # fixed by a transposition, so its signed sum is zero
        sign = [] if cls.size == 3 else [_combine(
            [lam[s3_apply_multiset(s, cls.representative)] for s in S3_ELEMENTS],
            (1, 1, 1, -1, -1, -1))]
        images = []
        for K in cls.members:
            uK = s3_apply_multiset(_U, K)
            images.append(_combine([lam[K], lam[s3_apply_multiset(_T, K)], lam[uK],
                                    lam[s3_apply_multiset(_T, uK)]], (1, 1, -1, -1)))
        standard = [images[i] for i in pivot_columns([list(c) for c in zip(*images)])]
        per_class[cls.label] = (trivial, sign, standard)
    pivots = [pivot_columns([r for rows in per_class.values() for r in rows[k]])
              for k in range(3)]
    dims = tuple(len(p) for p in pivots)
    if dims[0] + dims[1] + 2 * dims[2] != len(one):
        raise SymmetryViolated(f"isotypic dimensions {dims} do not add up to {len(one)}")
    rows, scales = {}, {}
    for label, blocks in per_class.items():
        scaled = [_integer_rows([[r[c] for c in p] for r in block])
                  for p, block in zip(pivots, blocks)]
        rows[label] = tuple(tuple(tuple(r) for r in ints) for ints, _ in scaled)
        scales[label] = scaled[0][1][0]
    (one_ints,), (one_scale,) = _integer_rows([[one[c] for c in pivots[0]]])
    return _IsotypicBlocks(dims, rows, scales, tuple(one_ints), one_scale)


@lru_cache(maxsize=1)
def _class_of() -> dict:
    """The class label and class size of every admissible spline."""
    return {K: (cls.label, cls.size) for cls in enumerate_admissible() for K in cls.members}


def _orbit_labels(multisets) -> tuple:
    """Sorted class labels of 39 distinct admissible splines forming whole
    S3 classes; DomainError for any other input."""
    of = _class_of()
    sizes = dict(of.get(K, (None, 0)) for K in multisets)
    if len(multisets) == 39 == len(set(multisets)) and None not in sizes \
            and sum(sizes.values()) == 39:
        return tuple(sorted(sizes))
    raise DomainError("a candidate must consist of whole S3 classes of 39 splines")


def _trie_class_weights(batch) -> list:
    """Per candidate, given by its sorted class labels: its weights by
    class, or None when its 39 lambda rows are dependent.

    One depth-first pass over the trie of the label sequences keeps a
    fraction-free echelon per isotypic block, and entering a node appends
    its class's block rows.  A row that reduces to zero, or a block given
    more rows than its dimension, proves every extension singular; a leaf
    with full blocks is a basis.  The weights are constant on classes (S3
    fixes the constant 1): each trivial row carries a unit tag at its depth,
    where the reduced constant 1 holds its class coordinates times minus
    the last pivot.
    """
    tables = _isotypic_blocks()
    dims, n = tables.dims, tables.dims[0]
    trie = ({}, [])     # (children by label, indices of the candidates ending here)
    for i, labels in enumerate(batch):
        node = trie
        for lab in labels:
            node = node[0].setdefault(lab, ({}, []))
        node[1].append(i)
    tags = [(0,) * k + (1,) + (0,) * (n - 1 - k) for k in range(n)]
    echelons, out = ([], [], []), [None] * len(batch)

    def visit(node, path):
        children, ends = node
        if ends and tuple(map(len, echelons)) == dims:
            c, last = echelons[0][-1]
            coords = reduce_row(echelons[0], tables.one + (0,) * n)[n:]
            weights = {lab: Fraction(-x * tables.trivial_scales[lab], last[c] * tables.one_scale)
                       for lab, x in zip(path, coords)}
            for i in ends:
                out[i] = weights
        for lab, child in children.items():
            blocks, marks = tables.rows[lab], tuple(map(len, echelons))
            if any(m + len(b) > d for m, b, d in zip(marks, blocks, dims)):
                continue
            rows = ((blocks[0][0] + tags[marks[0]],), blocks[1], blocks[2])
            if all(append_row(e, r, d) for e, rs, d in zip(echelons, rows, dims) for r in rs):
                visit(child, path + (lab,))
            for e, m in zip(echelons, marks):
                del e[m:]

    visit(trie, ())
    return out


def candidate_has_full_rank(cand: CandidateBasis) -> bool:
    """Whether the candidate's 39 lambda rows are independent, decided on
    its S3 isotypic blocks."""
    return _trie_class_weights([_orbit_labels(cand.multisets)])[0] is not None


def _multisets(cand) -> tuple:
    return cand.multisets if isinstance(cand, CandidateBasis) else tuple(knots(K) for K in cand)


def compute_weights(cand) -> tuple:
    """Unique weights with sum_i w_i Q_i = 1, in the candidate's order.

    Accepts a CandidateBasis or a plain sequence of multisets making up
    whole S3 classes.  Raises SingularSystem when the candidate is not a
    basis, which a repeated multiset proves (two equal lambda rows), and
    DomainError for any other input that is not a union of classes.
    """
    multisets = _multisets(cand)
    if len(set(multisets)) < len(multisets):
        raise SingularSystem("a repeated spline gives two equal lambda rows")
    by_class = _trie_class_weights([_orbit_labels(multisets)])[0]
    if by_class is None:
        raise SingularSystem("an S3 isotypic block of the candidate is singular")
    of = _class_of()
    return tuple(by_class[of[K][0]] for K in multisets)


#: The 21 monomial exponents of a ternary quintic, one column each in the
#: right-hand side of the dual-polynomial solve.
QUINTIC_MONOMIALS = tuple((i, j, 5 - i - j) for i in range(5, -1, -1)
                          for j in range(5 - i, -1, -1))


@lru_cache(maxsize=1)
def _marsden_rhs() -> tuple:
    """Functional values of (b1 c1 + b2 c2 + b3 c3)^5 as polynomials in c,
    one row of QUINTIC_MONOMIALS coefficients per functional."""
    frame = reference_frame()
    out = []
    for lam in build_lambda(frame):
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


@lru_cache(maxsize=1)
def _lambda_one_vector() -> tuple:
    """Functional values of the constant 1, one single-column row each: the
    Marsden polynomial at c = (1, 1, 1), where (b.c)^5 = 1."""
    return tuple((sum(row),) for row in _marsden_rhs())


def compute_dual_polys(cand, weights=None) -> tuple:
    """The products w_i * Psi_i as exact homogeneous quintics in (c1, c2, c3).

    Solves the collocation system with the quintic power functional values on
    the right-hand side; setting c1 = c2 = c3 = 1 in entry i recovers w_i.
    Column i of the system is the lambda row of Q_i scaled to integers by
    den_i, so solution row i is scaled back by den_i.
    """
    rows, dens = _integer_rows([lambda_vector(K) for K in _multisets(cand)])
    sol = solve([list(col) for col in zip(*rows)], _marsden_rhs())
    out = tuple(TriPoly(zip(QUINTIC_MONOMIALS, [x * den for x in xi]))
                for xi, den in zip(sol, dens))
    if weights is not None:
        for w, poly in zip(weights, out):
            if poly.evaluate(1, 1, 1) != w:
                raise SingularSystem("dual polynomials inconsistent with weights")
    return out


#: Two zero-sum barycentric displacements that span all of them.
_ZERO_SUM = ((1, 0, -1), (0, 1, -1))


@lru_cache(maxsize=1)
def _reproduction_rhs() -> tuple:
    """Functional values of 5 b1 - 5/3, the zero-sum part of the first
    coordinate in 5 b_j = sum_i x_ij Q_i, scaled to integers; plus the
    scale.  5 b1 is the c1-derivative of the Marsden polynomial (b.c)^5 at
    c = (1, 1, 1) and 1 its value there, so the values come from the
    coefficients of _marsden_rhs."""
    out = [sum((e[0] - Fraction(5, 3)) * coef for e, coef in zip(QUINTIC_MONOMIALS, row))
           for row in _marsden_rhs()]
    (ints,), (scale,) = _integer_rows([out])
    return tuple(ints), scale


@lru_cache(maxsize=1)
def _reproduction_columns() -> dict:
    """Per class label: each member with an S3 element taking the
    representative to it, and the class's columns of the first-coordinate
    system, each with the displacement of the representative it stands for.

    A zero-sum displacement y of the representative R that R's stabiliser
    fixes extends equivariantly to the class, sigma(R) taking
    s3_apply_bary(sigma, y); its column is the sum over the members of the
    first coordinate times the member's lambda row.  The fixed displacements
    span 2, 1 or 0 dimensions for a class of size 6, 3 or 1.  Each column is
    scaled to integers and its displacement by the same factor.
    """
    out = {}
    for cls in enumerate_admissible():
        R = cls.representative
        moves = {}
        for s in S3_ELEMENTS:
            moves.setdefault(s3_apply_multiset(s, R), s)
        stab = [s for s in S3_ELEMENTS if s3_apply_multiset(s, R) == R]
        # summing a displacement over the stabiliser makes it fixed
        fixed = [tuple(sum(s3_apply_bary(s, e)[j] for s in stab) for j in range(3))
                 for e in _ZERO_SUM]
        cols = []
        for k in pivot_columns([list(r) for r in zip(*fixed)]):
            y = fixed[k]
            col = _combine([lambda_vector(K) for K in cls.members],
                           [s3_apply_bary(moves[K], y)[0] for K in cls.members])
            (ints,), (scale,) = _integer_rows([col])
            cols.append((tuple(ints), tuple(scale * x for x in y)))
        out[cls.label] = (tuple(moves.items()), tuple(cols))
    return out


def domain_point(cand, weights) -> tuple:
    """The 39 barycentric domain points of a whole-class candidate, in its
    order, given its weights (aligned with it, as ``compute_weights``
    returns them).

    Solves the zero-sum part of the linear-reproduction identity on its 13
    S3-reduced unknowns: the solution y is unique when the candidate is a
    basis, and the domain point of a class representative R is
    xi_R = y_R / (5 w_R) + (1/3, 1/3, 1/3).  The weights are constant on
    classes, so xi_{sigma R} = s3_apply_bary(sigma, xi_R).  Raises
    DomainError for input that is not a union of S3 classes and
    SingularSystem when the 13 columns are dependent or the 26 equations
    left out of the solve do not hold.
    """
    multisets = _multisets(cand)
    labels = _orbit_labels(multisets)
    if len(weights) != len(multisets):
        raise DimensionMismatch("need one weight per element of the candidate")
    table = _reproduction_columns()
    cols = [(lab, col, y) for lab in labels for col, y in table[lab][1]]
    rows = pivot_columns([list(col) for _, col, _ in cols])
    if len(rows) != len(cols):
        raise SingularSystem("the reproduction columns of the candidate are dependent")
    A = [list(r) for r in zip(*(col for _, col, _ in cols))]
    rhs, scale = _reproduction_rhs()
    sol = solve([A[i] for i in rows], [[rhs[i]] for i in rows])
    # over a common denominator, so that the check runs in integers
    den = lcm(*(a.denominator for (a,) in sol))
    coeffs = [a.numerator * (den // a.denominator) for (a,) in sol]
    if any(sum(x * a for x, a in zip(row, coeffs)) != den * r for row, r in zip(A, rhs)):
        raise SingularSystem("the reproduction solve fails on the rows left out of it")
    disp = {lab: [0, 0, 0] for lab in labels}
    for (lab, _, y), a in zip(cols, coeffs):
        disp[lab] = [d + a * v for d, v in zip(disp[lab], y)]
    # the displacements carry the factor den * scale, so with w = p / q,
    # y / (5 den scale w) + 1/3 = (3 y q + D p) / (3 D p), D = 5 den scale
    D = 5 * den * scale
    weight_of = dict(zip(multisets, weights))
    points = {}
    for lab in labels:
        moves, _ = table[lab]
        w = Fraction(weight_of[moves[0][0]])    # constant on the class
        xi = tuple(Fraction(3 * y * w.denominator + D * w.numerator, 3 * D * w.numerator)
                   for y in disp[lab])
        points.update((K, s3_apply_bary(s, xi)) for K, s in moves)
    return tuple(points[K] for K in multisets)


# ---------------------------------------------------------------------------
# Splitting dual polynomials into linear factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFactorization:
    """Outcome of factoring a dual product into real linear forms.

    When split is True and the factors are rational, ``forms`` holds the five
    barycentric triples normalized to sum 1 and ``scalar`` the leftover
    weight.  A real split through irrational quadratic roots sets split=True
    with forms=None.  ``diagnostic`` names the obstruction otherwise, and
    ``witness`` holds the two split vertices spanning a line on which it is
    a non-real root.
    """

    split: bool
    scalar: Fraction = Fraction(0)
    forms: tuple = None
    diagnostic: str = ""
    witness: tuple = None


#: The unit exponents, the coefficients of a linear form.
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

#: Pairs of split vertices spanning the lines tried for a non-real root,
#: the three macro edges first.
_LINES = (*combinations(VERTEX_BARY[:3], 2), *combinations(VERTEX_BARY, 2))


def split_linear_factors(poly: TriPoly) -> LinearFactorization:
    """Factor a homogeneous quintic into five real linear forms, if possible.

    Repeated exact trial division by the ten shorthand forms resolves every
    dual product of the surviving bases; exact certificates decide the
    remainder.  A linear one is its own factor.  A quadratic one splits iff
    its symmetric matrix is singular with indefinite or rank-one nonzero
    part, into the lines through the conic's singular point and the two
    roots on a coordinate line missing it.  A rational factor with
    coefficient sum 0 (at infinity) rejects.  A remainder of higher degree
    is rejected on a line through two split vertices, the macro edges
    first, where an exact Sturm count shows a non-real root, which no
    product of real linear forms has.  Without one, its rational linear
    factors are divided off until the degree is at most 2, so every
    product of rational forms splits.  PS12Error is raised only when a
    factor of degree 3 or more with no rational linear factor and no such
    witness is left, as for c3^2 (c1^3 + c1^2 c2 - 2 c1 c2^2 - c2^3): its
    cubic is irreducible over Q with the real roots 2 cos(2 pi k / 7).
    """
    if not poly.is_homogeneous() or poly.degree() != 5 or not poly:
        return LinearFactorization(False, diagnostic="not a nonzero homogeneous quintic")
    forms, rem = [], poly
    for triple in VERTEX_BARY:
        while (quo := rem.divide_by_linear(triple)) is not None:
            forms.append(triple)
            rem = quo
    found = []
    if rem.degree() >= 3:
        witness = next((pq for pq in _LINES if _has_nonreal_root(rem, *pq)), None)
        if witness is not None:
            ends = " and ".join(f"v{VERTEX_BARY.index(v) + 1}" for v in witness)
            return LinearFactorization(False, witness=witness, diagnostic=(
                f"a factor of degree {rem.degree()} has a non-real root on the line {ends}"))
        found, rem = _rational_linear_factors(rem)
        if rem.degree() >= 3:
            raise PS12Error(f"no certificate decides whether {rem} splits over the reals")
    if rem.degree() == 1:
        found.append(tuple(rem.coefficient(e) for e in _UNITS))
    if rem.degree() == 2:
        a = [[rem.coefficient(tuple(map(add, e, f))) / (1 if e == f else 2) for f in _UNITS]
             for e in _UNITS]
        piv = pivot_columns(a)
        e2 = sum(a[i][i] * a[j][j] - a[i][j] ** 2 for i, j in combinations(range(3), 2))
        if len(piv) == 3 or e2 > 0:
            return LinearFactorization(False, diagnostic=f"quadratic factor without a real "
                                                         f"split: {rem}")
        # the singular point p, with p_k = 1 off the pivots, and the roots
        # of the restriction alpha x^2 + 2 beta x y + gamma y^2 to c_k = 0
        k = next(j for j in range(3) if j not in piv)
        p = [1 if j == k else 0 for j in range(3)]
        for col, (x,) in zip(piv, solve([[a[i][j] for j in piv] for i in piv],
                                        [[-a[i][k]] for i in piv])):
            p[col] = x
        i, j = (n for n in range(3) if n != k)
        al, be, ga = a[i][i], a[i][j], a[j][j]
        d = be * be - al * ga
        s = Fraction(isqrt(d.numerator), isqrt(d.denominator))
        if s * s != d:
            return LinearFactorization(True, scalar=poly.evaluate(1, 1, 1), forms=None,
                                       diagnostic="real split with irrational factors")
        for sg in (1, -1):  # the root (sg s - beta, alpha), or (gamma, -beta - sg s) if that is 0
            r = [0, 0, 0]
            r[i], r[j] = (sg * s - be, al) if (sg * s - be or al) else (ga, -be - sg * s)
            found.append(tuple(p[(n + 1) % 3] * r[(n + 2) % 3] - p[(n + 2) % 3] * r[(n + 1) % 3]
                               for n in range(3)))
    for form in found:
        total = sum(form)
        if total == 0:
            return LinearFactorization(False, diagnostic=f"linear factor at infinity: "
                                                         f"({', '.join(map(str, form))})")
        forms.append(tuple(Fraction(x) / total for x in form))
    return LinearFactorization(True, scalar=poly.evaluate(1, 1, 1),
                               forms=tuple(sorted(forms, reverse=True)))


def _rational_linear_factors(rem) -> tuple:
    """(forms, quotient): rem divided by rational linear forms until the
    quotient has degree at most 2 or no rational linear factor.

    Such a factor, not a coordinate form, meets each coordinate line in a
    rational root of rem there (rational-root theorem).  Two of these three
    points are distinct, so it is the cross product of two roots on
    different lines; exact trial division confirms it.
    """
    points = []
    for p, q in combinations(_UNITS, 2):
        f = _on_line(rem, p, q)     # the root x / y is the point x p + y q
        ends = [a for a in f if a]
        for x, y in {(1, 0), (0, 1)} | {(s * u, v) for u in _divisors(ends[0])
                                         for v in _divisors(ends[-1]) for s in (1, -1)}:
            if not sum(a * x ** k * y ** (len(f) - 1 - k) for k, a in enumerate(f)):
                points.append([x * a + y * b for a, b in zip(p, q)])
    forms = []
    for p, q in combinations(points, 2):
        form = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
        while any(form) and rem.degree() > 2 and (quo := rem.divide_by_linear(form)) is not None:
            forms.append(form)
            rem = quo
    return forms, rem


def _divisors(n: int) -> set:
    small = [k for k in range(1, isqrt(abs(n)) + 1) if n % k == 0]
    return set(small) | {abs(n) // k for k in small}


def _on_line(rem, p, q) -> list:
    """Integer coefficients, constant term first, of a positive multiple of
    rem(x a p + b q), where a, b > 0 scale p and q to integers: the roots
    of rem(x p + q), scaled by b / a."""
    (p, q, coefs), _ = _integer_rows([p, q, list(rem.terms.values())])
    g = [0] * (rem.degree() + 1)
    for e, coef in zip(rem.terms, coefs):
        term = [coef]
        for pr, qr, n in zip(p, q, e):
            for _ in range(n):
                term = [a * qr + b * pr for a, b in zip(term + [0], [0] + term)]
        g = [a + b for a, b in zip(g, term)]
    return g


def _has_nonreal_root(rem, p, q) -> bool:
    """Whether rem on the line through p and q, g(x) = rem(x p + q), has a
    non-real root: fewer distinct real roots (a Sturm count) than distinct
    roots (deg g - deg gcd(g, g'), the last term of the Sturm sequence).
    Positive scalings keep the sign counts, so the terms stay integers.  A
    zero g, a line on which rem vanishes, has none."""
    g = _on_line(rem, p, q)
    while len(g) > 1 and not g[-1]:
        g.pop()
    seq = [g]
    seq.append([n * c for n, c in enumerate(seq[0])][1:])
    while seq[-1]:
        r, d = seq[-2], seq[-1]
        sd, ad = (1, d[-1]) if d[-1] > 0 else (-1, -d[-1])
        while len(r) >= len(d):  # cancel the leading term of r, scaled by ad > 0
            r = [ad * c - sd * r[-1] * b for c, b in zip(r, [0] * (len(r) - len(d)) + d)][:-1]
        while r and not r[-1]:
            r.pop()
        seq.append([-c for c in r])
    seq.pop()
    at_minus = [(c[-1] > 0) == (len(c) % 2 == 1) for c in seq]
    at_plus = [c[-1] > 0 for c in seq]
    real = sum(map(ne, at_minus, at_minus[1:])) - sum(map(ne, at_plus, at_plus[1:]))
    return real < len(seq[0]) - len(seq[-1])


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


def filter_pipeline(candidates=None, stage: str = "linear_factors") -> SearchReport:
    """Run the filters in order, recording the count after each stage.

    ``stage`` may name an earlier stage to stop at.
    """
    if stage not in PIPELINE_STAGES:
        raise DomainError(f"unknown stage {stage!r}")
    last = PIPELINE_STAGES.index(stage)
    report = SearchReport(stage=stage)
    cands = list(enumerate_candidates() if candidates is None else candidates)
    report.counts["candidates"] = len(cands)
    if last < 1:
        return report

    by_class = _trie_class_weights([_orbit_labels(c.multisets) for c in cands])
    weighted = [(c, w) for c, w in zip(cands, by_class) if w is not None]
    report.counts["full_rank"] = len(weighted)
    if last < 2:
        return report

    of = _class_of()
    weighted = [(c, tuple(w[of[K][0]] for K in c.multisets)) for c, w in weighted
                if all(x >= 0 for x in w.values())]
    report.counts["nonnegative"] = len(weighted)
    if last < 3:
        return report

    weighted = [(c, w) for c, w in weighted if all(x > 0 for x in w)]
    report.counts["positive"] = len(weighted)
    if last < 4:
        return report

    pointed = [(c, w, domain_point(c, w)) for c, w in weighted]
    pointed = [t for t in pointed if _domain_points_inside(t[2])]
    report.counts["domain_inside"] = len(pointed)
    if last < 5:
        return report

    pointed = [t for t in pointed if _boundary_point_counts(t[2]) == (8, 8, 8)]
    report.counts["boundary_counts"] = len(pointed)
    if last < 6:
        return report

    basis_of = {content: bid for bid, content in BASIS_CLASS_CONTENT.items()}
    for c, w, points in pointed:
        polys = compute_dual_polys(c, weights=w)
        facts = [split_linear_factors(p) for p in polys]
        if not all(f.split for f in facts):
            continue
        dual_points = tuple(f.forms for f in facts)
        # the domain point is the mean of the dual points: a certificate for
        # the reproduction solve, independent of it, wherever they are rational
        for xi, forms in zip(points, dual_points):
            if forms is not None and \
                    tuple(sum(p[r] for p in forms) / 5 for r in range(3)) != xi:
                raise SingularSystem("a domain point is not the mean of its dual points")
        report.survivors.append(SurvivorBasis(
            basis_id=basis_of.get(c.labels, ""),
            labels=tuple(sorted(c.labels)),
            multisets=c.multisets,
            weights=w,
            dual_products=polys,
            dual_points=dual_points,
            domain_points=points))
    report.survivors.sort(key=lambda s: s.basis_id)
    report.counts["linear_factors"] = len(report.survivors)
    return report
