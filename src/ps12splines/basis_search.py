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

Everything is exact: every elimination is fraction-free (``linalg``), the
split of a dual product runs on its integer coefficients, and the last
filter accepts only an explicit split and rejects only on a certificate.
A candidate is a union of S3 orbits, named by its class labels, so its
39x39 collocation matrix commutes with the symmetry and splits into
isotypic blocks (Fassler-Stiefel): over the 99 splines the trivial, sign
and standard blocks have dimensions 8, 5 and 13, and 8 + 5 + 2*13 = 39.
A class gives them its class sum, its signed orbit sum and its columns of
the domain-point system below: one vector from each of its copies of the
standard representation, which is enough, since by Schur's lemma an
equivariant map from an irreducible representation vanishes iff it
vanishes at one nonzero vector.  The block tables are built once, after
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
and 1 per class of three, solved from the 13 equations of the standard
block and checked exactly on all 39.  The dual polynomials solve the
39x39 system of the integer lambda rows; the pipeline forms them only for
the candidates that pass the boundary counts.  One right-hand-side table serves
every solve: the functional values of the Marsden polynomial (b.c)^5, whose
value at c = (1, 1, 1) is the constant 1 and whose c1-derivative there is
5 b1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, isqrt, lcm, perm
from operator import add, ne, sub

from .bspline1d import ref_from_counts
from .dual_functionals import FUNCTIONALS, bary_direction, lambda_vector
from .errors import (DimensionMismatch, DomainError, PS12Error, SingularSystem,
                     SymmetryViolated)
from .geometry import (EDGES, INTERIOR_LINES, S3_ELEMENTS, VERTEX_BARY, s3_apply_bary,
                       s3_apply_multiset)
from .linalg import _integer_rows, append_row, pivot_columns, reduce_row, solve
from .linalg import bareiss  # noqa: F401  (perfbench/tracer.py wraps this name)
from .marsden_catalog import CATALOG_ROWS, linear_product
from .rational import is_exact
from .serialize import PIPELINE_STAGES
from .simplex_spline import (_independent_triple, active_indices, bernstein_exponents, knot_label,
                             knots)

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
    """A symmetric 39-element candidate: the labels of its S3 classes,
    which must be known, disjoint and 39 splines in all (DomainError)."""

    boundary_labels: tuple
    interior_labels: tuple

    def __post_init__(self):
        try:
            sizes = [_classes()[lab].size for lab in self.labels]
        except (KeyError, TypeError):     # an unknown or unhashable label
            sizes = []
        if sum(sizes) != 39 or len(sizes) != len(self.boundary_labels) + len(self.interior_labels):
            raise DomainError(f"not whole S3 classes of 39 splines: {self!r}")

    @property
    def labels(self) -> frozenset:
        return frozenset(self.boundary_labels) | frozenset(self.interior_labels)

    @cached_property
    def multisets(self) -> tuple:
        """The 39 multiplicity vectors of its classes, sorted."""
        return tuple(sorted(K for lab in self.labels for K in _classes()[lab].members))


def _admissible(K) -> bool:
    """Whether the quintic Q[K] is C^3 and reduces to a B-spline on the
    boundary: smoothness_order(K, line) >= 3, that is at most three knots,
    on every interior line that carries two distinct knots; a window of
    the open knot vector (ref_from_counts) on every macro edge that
    carries seven knots; and a nondegenerate support."""
    for line in INTERIOR_LINES:
        on = [K[i - 1] for i in line if K[i - 1]]
        if len(on) >= 2 and sum(on) > 3:
            return False
    for counts in ([K[i - 1] for i in edge] for edge in EDGES.values()):
        if sum(counts) == 7 and ref_from_counts(5, *counts) is None:
            return False
    return _independent_triple(active_indices(K)) is not None


@lru_cache(maxsize=1)
def enumerate_admissible() -> tuple:
    """The 20 symmetry classes of admissible quintic simplex splines.

    Admissible (``_admissible``): |K| = 8, no knots on the inner vertices,
    at most three knots on every interior line carrying at least two
    distinct knots, boundary restrictions equal to (scaled) B-splines of
    the open knot vector, and a nondegenerate support.
    """
    found = []
    for bars in combinations(range(13), 5):     # six counts summing to 8: stars and bars
        K = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (13,))) + (0, 0, 0, 0)
        if _admissible(K):
            found.append(K)
    classes = []
    for label, rep in CLASS_REPRESENTATIVES.items():
        R = knots(rep)
        orbit = tuple(sorted({s3_apply_multiset(s, R) for s in S3_ELEMENTS}))
        classes.append(S3Class(label=label, representative=R, members=orbit))
    if sorted(K for cls in classes for K in cls.members) != sorted(found):
        raise AssertionError("admissible splines do not make up the twenty named classes")
    return tuple(classes)


@lru_cache(maxsize=1)
def _classes() -> dict:
    """The admissible classes by label."""
    return {cls.label: cls for cls in enumerate_admissible()}


@lru_cache(maxsize=1)
def enumerate_candidates() -> tuple:
    """All symmetric 39-element candidates built from whole classes: one
    class per set of boundary B-splines, in label order, and each selection
    of interior classes that fills the remaining slots."""
    classes = _classes()
    groups, by_size = {}, {}
    for c in classes.values():
        # grouped by the boundary B-spline indices its members give on the edge e3
        refs = (ref_from_counts(5, *(m[i - 1] for i in EDGES["e3"])) for m in c.members)
        groups.setdefault(frozenset(r.index for r in refs if r is not None), []).append(c.label)
    interior = groups.pop(frozenset())
    for k in range(len(interior) + 1):
        for sel in combinations(interior, k):
            by_size.setdefault(sum(classes[lab].size for lab in sel), []).append(sel)
    return tuple(CandidateBasis(choice, sel) for choice in sorted(product(*groups.values()))
                 for sel in by_size.get(39 - sum(classes[lab].size for lab in choice), ()))


# ---------------------------------------------------------------------------
# S3 isotypic blocks of the collocation table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _IsotypicBlocks:
    """The lambda rows of the 99 admissible splines split by S3 isotypic type.

    ``rows[label]`` holds the class's (trivial, sign, standard) rows: its
    class sum, its signed orbit sum (size-6 classes only) and its columns
    of the domain-point system, ``_reproduction_columns``.  Each block is
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
    for sigma in ((2, 1, 3), (3, 2, 1)):    # (12) and (13), which generate S3
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
    columns, standard = _reproduction_columns()
    per_class = {}
    for cls in classes:
        trivial = [_combine([lam[K] for K in cls.members], [1] * cls.size)]
        # S3_ELEMENTS lists the even permutations first; a size-3 orbit is
        # fixed by a transposition, so its signed sum is zero
        sign = [] if cls.size == 3 else [_combine(
            [lam[s3_apply_multiset(s, cls.representative)] for s in S3_ELEMENTS],
            (1, 1, 1, -1, -1, -1))]
        per_class[cls.label] = (trivial, sign, [col for col, _ in columns[cls.label][1]])
    pivots = [*(pivot_columns([r for rows in per_class.values() for r in rows[k]])
                for k in (0, 1)), standard]
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


def _whole_classes(cand) -> tuple:
    """(multisets, sorted class labels) of a CandidateBasis, or of a
    sequence of multisets making up whole S3 classes (``_orbit_labels``),
    in its order; SingularSystem for a repeated multiset (two equal lambda
    rows), DomainError for anything else."""
    if isinstance(cand, CandidateBasis):
        return cand.multisets, tuple(sorted(cand.labels))
    try:
        multisets = tuple(map(knots, cand))
    except TypeError:     # not iterable
        raise DomainError(f"a candidate must be a sequence of multisets, not {cand!r}") from None
    if len(set(multisets)) < len(multisets):
        raise SingularSystem("a repeated spline gives two equal lambda rows")
    return multisets, _orbit_labels(multisets)


def candidate_has_full_rank(cand) -> bool:
    """Whether the candidate's 39 lambda rows are independent, decided on
    its S3 isotypic blocks; input as for ``_whole_classes``."""
    return _trie_class_weights([_whole_classes(cand)[1]])[0] is not None


def compute_weights(cand) -> tuple:
    """Unique weights with sum_i w_i Q_i = 1, in the candidate's order.

    Input as for ``_whole_classes``.  Raises SingularSystem when the
    candidate is not a basis.
    """
    multisets, labels = _whole_classes(cand)
    by_class = _trie_class_weights([labels])[0]
    if by_class is None:
        raise SingularSystem("an S3 isotypic block of the candidate is singular")
    of = _class_of()
    return tuple(by_class[of[K][0]] for K in multisets)


@lru_cache(maxsize=1)
def _marsden_rhs() -> tuple:
    """Functional values of (b1 c1 + b2 c2 + b3 c3)^5 as polynomials in c,
    one row of coefficients per functional, on the 21 monomials of
    bernstein_exponents(5)."""
    out = []
    for lam in FUNCTIONALS:
        # D_deltas (beta . c)^5 = 5!/(5 - k)! prod (delta . c) (beta . c)^(5 - k)
        poly = linear_product(perm(5, lam.order), [*map(bary_direction, lam.directions),
                                                    *[lam.point] * (5 - lam.order)])
        out.append(tuple(poly.get(e, Fraction(0)) for e in bernstein_exponents(5)))
    return tuple(out)


@lru_cache(maxsize=1)
def _lambda_one_vector() -> tuple:
    """Functional values of the constant 1, one single-column row each: the
    Marsden polynomial at c = (1, 1, 1), where (b.c)^5 = 1."""
    return tuple((sum(row),) for row in _marsden_rhs())


def compute_dual_polys(cand, weights=None) -> tuple:
    """The products w_i * Psi_i as exact homogeneous quintics in (c1, c2, c3).

    Solves the collocation system with the quintic power functional values on
    the right-hand side; setting c1 = c2 = c3 = 1 in entry i recovers w_i,
    to be checked against weights, one per element, when they are given.
    Column i of the system is the lambda row of Q_i scaled to integers by
    den_i, so solution row i is scaled back by den_i.  Input as for
    ``_whole_classes``.
    """
    rows, dens = _integer_rows([lambda_vector(K) for K in _whole_classes(cand)[0]])
    sol = solve([list(col) for col in zip(*rows)], _marsden_rhs())
    out = tuple({e: x * den for e, x in zip(bernstein_exponents(5), xi) if x}
                for xi, den in zip(sol, dens))
    if weights is not None:
        if len(weights) != len(out):
            raise DimensionMismatch("need one weight per element of the candidate")
        if any(sum(poly.values()) != w for w, poly in zip(weights, out)):
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
    out = [sum((e[0] - Fraction(5, 3)) * coef for e, coef in zip(bernstein_exponents(5), row))
           for row in _marsden_rhs()]
    (ints,), (scale,) = _integer_rows([out])
    return tuple(ints), scale


@lru_cache(maxsize=1)
def _reproduction_columns() -> tuple:
    """(table, rows).  ``table`` holds per class label each member with an
    S3 element taking the representative to it, and the class's columns of
    the first-coordinate system, each with the displacement of the
    representative it stands for.  On the 13 pivot ``rows`` of all the
    columns, as many as a candidate's unknowns (else SymmetryViolated), they
    are injective and form the standard block of ``_isotypic_blocks``.

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
    rows = pivot_columns([list(col) for _, cols in out.values() for col, _ in cols])
    if len(rows) != 13:
        raise SymmetryViolated(f"the reproduction columns span {len(rows)} dimensions, not 13")
    return out, rows


def domain_point(cand, weights) -> tuple:
    """The 39 barycentric domain points of a whole-class candidate, in its
    order, given its weights (aligned with it, as ``compute_weights``
    returns them).

    Solves the zero-sum part of the linear-reproduction identity on its 13
    S3-reduced unknowns: the solution y is unique when the candidate is a
    basis, and the domain point of a class representative R is
    xi_R = y_R / (5 w_R) + (1/3, 1/3, 1/3).  The weights are constant on
    classes, so xi_{sigma R} = s3_apply_bary(sigma, xi_R).  Input as for
    ``_whole_classes``; a zero weight, or weights that differ within a
    class, raise DomainError.  Raises
    SingularSystem when the 13 columns are dependent on the 13 rows of the
    solve or the 26 equations left out of it do not hold.
    """
    multisets, labels = _whole_classes(cand)
    if len(weights) != len(multisets):
        raise DimensionMismatch("need one weight per element of the candidate")
    if not all(weights):
        raise DomainError("a zero weight has no domain point")
    table, rows = _reproduction_columns()
    cols = [(lab, col, y) for lab in labels for col, y in table[lab][1]]
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
        ws = {weight_of[K] for K, _ in moves}
        if len(ws) != 1:
            raise DomainError(f"the weights of class {lab} differ")
        w = Fraction(ws.pop())
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
    with forms=None.  Both need ``scalar`` = P(1, 1, 1) nonzero: at 0 some
    factor is at infinity.  ``diagnostic`` names the obstruction otherwise, and
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

#: The split vertices' barycentrics as primitive integer linear forms.
_SHORTHAND_FORMS = tuple(map(tuple, _integer_rows(VERTEX_BARY)[0]))

#: Pairs of split vertices spanning the lines tried for a non-real root,
#: the three macro edges first.
_LINES = (*combinations(VERTEX_BARY[:3], 2), *combinations(VERTEX_BARY, 2))


def split_linear_factors(poly: dict) -> LinearFactorization:
    """Factor a homogeneous quintic, a form as in linear_product, into five
    real linear forms, if possible.

    On the quintic scaled to integers, an {exponent: int} dict, repeated
    exact trial division (_divide) by the ten shorthand forms resolves every
    dual product of the surviving bases; exact certificates decide the
    remainder.  One of degree 3 or more is rejected on a line through two
    split vertices, the macro edges first, where an exact Sturm count shows
    a non-real root, which no product of real linear forms has.  Without
    one, every rational linear factor of a remainder of degree 2 or more is
    divided off (_rational_linear_factors), so every product of rational
    forms splits.  A linear remainder is its own factor; a quadratic one,
    left without rational factors, splits (into irrational forms) iff its
    symmetric matrix is singular with indefinite nonzero part.  Every split
    that is left rejects when P(1, 1, 1), the coefficient sum, is 0: it is s
    times the product of the factors' sums, so some factor, rational or
    irrational, has sum 0 and its dual point at infinity (the diagnostic
    quotes it when it is rational).  PS12Error is
    raised only when a factor of degree 3 or more with no such witness is
    left that has no rational linear factor, as for
    c3^2 (c1^3 + c1^2 c2 - 2 c1 c2^2 - c2^3) (its cubic is irreducible over
    Q with the real roots 2 cos(2 pi k / 7)), or whose rational roots on a
    coordinate line would need the divisors of a coefficient above 10^10.
    """
    if not isinstance(poly, dict) or not is_exact(poly.values()) or not all(
            type(e) is tuple and len(e) == 3 and all(type(i) is int and i >= 0 for i in e)
            for e in poly):
        raise DomainError("split_linear_factors needs a dict of exact coefficients "
                          f"keyed by exponent triples, not {poly!r}")
    poly = {e: c for e, c in poly.items() if c}
    if {sum(e) for e in poly} != {5}:
        return LinearFactorization(False, diagnostic="not a nonzero homogeneous quintic")
    (coefs,), _ = _integer_rows([list(poly.values())])
    rem, forms, scalar = dict(zip(poly, coefs)), [], Fraction(sum(poly.values()))
    for triple, form in zip(VERTEX_BARY, _SHORTHAND_FORMS):
        while (quo := _divide(rem, form)) is not None:
            forms.append(triple)
            rem = quo
    found, deg = [], 5 - len(forms)
    if deg >= 3:
        witness = next((pq for pq in _LINES if _has_nonreal_root(rem, *pq)), None)
        if witness is not None:
            ends = " and ".join(f"v{VERTEX_BARY.index(v) + 1}" for v in witness)
            return LinearFactorization(False, witness=witness, diagnostic=(
                f"a factor of degree {deg} has a non-real root on the line {ends}"))
    if deg >= 2:
        found, rem = _rational_linear_factors(rem)
        deg -= len(found)
    if deg >= 3:
        raise PS12Error(f"no certificate decides whether {rem} splits over the reals")
    if deg == 2:
        # twice the conic's symmetric matrix, in integers
        a = [[rem.get(tuple(map(add, e, f)), 0) * (1 + (e == f)) for f in _UNITS] for e in _UNITS]
        e2 = sum(a[i][i] * a[j][j] - a[i][j] ** 2 for i, j in combinations(range(3), 2))
        if len(pivot_columns(a)) == 3 or e2 > 0:
            return LinearFactorization(False, diagnostic=f"quadratic factor without a real "
                                                         f"split: {rem}")
    if deg == 1:
        found.append(tuple(rem.get(e, 0) for e in _UNITS))
    if scalar == 0:
        # P(1, 1, 1) = s * prod L(1, 1, 1): some factor, rational or not, is at infinity
        form = next((f for f in found if not sum(f)), None)
        where = f"({', '.join(map(str, form))})" if form else f"a factor of the quadratic {rem}"
        return LinearFactorization(False, diagnostic=f"linear factor at infinity: {where}")
    if deg == 2:
        return LinearFactorization(True, scalar=scalar, forms=None,
                                   diagnostic="real split with irrational factors")
    forms += [tuple(Fraction(x) / sum(form) for x in form) for form in found]
    return LinearFactorization(True, scalar=scalar, forms=tuple(sorted(forms, reverse=True)))


def _divide(poly: dict, form) -> dict | None:
    """poly / form for a nonzero homogeneous form poly, {exponent: int}, and
    a primitive integer linear form, or None when form does not divide poly.
    A quotient over Q is integral (Gauss's lemma), so its terms are cancelled
    from the highest power of the form's first variable down, and an
    inexact division or a term left over proves that form does not divide.
    """
    lead = next(v for v, c in enumerate(form) if c)
    rem, quo = dict(poly), {}
    for level in range(sum(next(iter(poly))), 0, -1):
        for e in [e for e, c in rem.items() if c and e[lead] == level]:
            q, r = divmod(rem.pop(e), form[lead])
            if r:
                return None
            quo[e := tuple(map(sub, e, _UNITS[lead]))] = q
            for v, c in enumerate(form):
                if c and v != lead:
                    t = tuple(map(add, e, _UNITS[v]))
                    rem[t] = rem.get(t, 0) - q * c
    return None if any(rem.values()) else quo


def _rational_linear_factors(rem: dict) -> tuple:
    """(forms, quotient): rem, which no coordinate form divides, divided by
    each of its rational linear factors as often as it divides, so the
    quotient has none (it is a constant when rem is a product of them).

    Such a factor, not a coordinate form, meets each coordinate line in a
    rational root of rem there: read off an isqrt of the discriminant when,
    past its roots x = 0 and y = 0, rem is at most quadratic there, or else
    from the divisors of the end coefficients (rational-root theorem;
    PS12Error past 10^10).  Two of these three points are distinct, so it
    is the cross product of two roots on different lines; exact trial
    division confirms it.
    """
    points = []
    for p, q in combinations(_UNITS, 2):
        f = _on_line(rem, p, q)     # the root x / y is the point x p + y q
        nonzero = [k for k, a in enumerate(f) if a]
        g, roots = f[nonzero[0]:nonzero[-1] + 1], {(1, 0), (0, 1)}
        if len(g) <= 3:
            h0, h1, h2 = [0] * (3 - len(g)) + g
            s = isqrt(max(disc := h1 * h1 - 4 * h0 * h2, 0))
            roots |= {(-h1 + s, 2 * h2), (-h1 - s, 2 * h2)} if s * s == disc else set()
        elif max(abs(g[0]), abs(g[-1])) > 10 ** 10:
            raise PS12Error(f"no certificate decides whether {rem} splits over the reals")
        else:
            roots |= {(s * u, v) for u in _divisors(g[0]) for v in _divisors(g[-1])
                      for s in (1, -1)}
        for x, y in roots:
            if not sum(a * x ** k * y ** (len(f) - 1 - k) for k, a in enumerate(f)):
                points.append([x * a + y * b for a, b in zip(p, q)])
    forms = []
    for p, q in combinations(points, 2):
        form = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
        g = gcd(*form) or 1     # a zero form, from two equal points, divides nothing
        form = tuple(x // g for x in form)
        while any(form) and (quo := _divide(rem, form)) is not None:
            forms.append(form)
            rem = quo
    return forms, rem


def _divisors(n: int) -> set:
    small = [k for k in range(1, isqrt(abs(n)) + 1) if n % k == 0]
    return set(small) | {abs(n) // k for k in small}


def _on_line(rem: dict, p, q) -> list:
    """Integer coefficients, constant term first, of a nonzero multiple of
    rem(x a p + b q), where a, b > 0 scale p and q to integers: the roots
    of rem(x p + q), scaled by b / a."""
    (p, q), _ = _integer_rows([p, q])
    g = [0] * (sum(next(iter(rem))) + 1)
    for e, coef in rem.items():
        line = [(pr, qr, 0) for pr, qr, n in zip(p, q, e) for _ in range(n)]
        for (i, _, _), c in linear_product(coef, line).items():
            g[i] += c
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

@dataclass
class SurvivorBasis:
    """Full derived data for one candidate that survived all filters."""

    basis_id: str
    labels: tuple
    multisets: tuple
    weights: tuple
    dual_products: tuple      # forms as in linear_product, aligned with multisets
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
    """Number of domain points on each macro edge (closed), in the order of
    EDGES: the points inside with a zero coordinate at the opposite corner."""
    inside = [xi for xi in points if min(xi) >= 0]
    # 6 - a - b is the corner not on the edge from a to b
    return tuple(sum(1 for xi in inside if xi[6 - a - b - 1] == 0) for a, _, b in EDGES.values())


def filter_pipeline(candidates=None, stage: str = "linear_factors") -> SearchReport:
    """Run the stages of PIPELINE_STAGES in order over CandidateBasis items
    (all 3648 by default; DomainError for any other item), recording the
    count after each.  ``stage`` may name an earlier stage to stop at.
    """
    if stage not in PIPELINE_STAGES:
        raise DomainError(f"unknown stage {stage!r}")
    report = SearchReport(stage=stage)
    items = list(enumerate_candidates() if candidates is None else candidates)
    if not all(isinstance(c, CandidateBasis) for c in items):
        raise DomainError("filter_pipeline takes CandidateBasis items only")
    for name in PIPELINE_STAGES[:PIPELINE_STAGES.index(stage) + 1]:
        if name == "full_rank":     # (candidate, weights by class)
            by_class = _trie_class_weights([tuple(sorted(c.labels)) for c in items])
            items = [(c, w) for c, w in zip(items, by_class) if w is not None]
        elif name == "nonnegative":
            items = [(c, w) for c, w in items if all(x >= 0 for x in w.values())]
        elif name == "positive":    # (candidate, weights in its order)
            of = _class_of()
            items = [(c, tuple(w[of[K][0]] for K in c.multisets)) for c, w in items
                     if all(x > 0 for x in w.values())]
        elif name == "domain_inside":   # (candidate, weights, domain points)
            items = [(c, w, domain_point(c, w)) for c, w in items]
            items = [t for t in items if _domain_points_inside(t[2])]
        elif name == "boundary_counts":
            items = [t for t in items if _boundary_point_counts(t[2]) == (8, 8, 8)]
        elif name == "linear_factors":
            items = report.survivors = sorted(filter(None, (_survivor(*t) for t in items)),
                                              key=lambda s: s.basis_id)
        report.counts[name] = len(items)
    return report


def _survivor(cand, weights, points) -> SurvivorBasis | None:
    """The derived data of a candidate whose dual products all split into
    real linear factors, or None; SingularSystem when a domain point is not
    the mean of its rational dual points."""
    polys = compute_dual_polys(cand, weights=weights)
    facts = [split_linear_factors(p) for p in polys]
    if not all(f.split for f in facts):
        return None
    dual_points = tuple(f.forms for f in facts)
    # the domain point is the mean of the dual points: a certificate for
    # the reproduction solve, independent of it, wherever they are rational
    for xi, forms in zip(points, dual_points):
        if forms is not None and tuple(sum(p[r] for p in forms) / 5 for r in range(3)) != xi:
            raise SingularSystem("a domain point is not the mean of its dual points")
    return SurvivorBasis(
        basis_id=next((b for b, lab in BASIS_CLASS_CONTENT.items() if lab == cand.labels), ""),
        labels=tuple(sorted(cand.labels)),
        multisets=cand.multisets,
        weights=weights,
        dual_products=polys,
        dual_points=dual_points,
        domain_points=points)
