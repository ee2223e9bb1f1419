"""Splines as coefficient vectors in one of the six bases.

A spline is f = sum_i c_i S_i with S_i = w_i Q_i the scaled basis functions,
read off one cached table per basis: the per-face ordinates of the S_i as
integers over one denominator.  Exact values (rational.is_exact) stay on
integers from geometry._bary to one Fraction, through quintic_form
(eval_spline) or functional_row (basis_values).  The float layer contracts
each of the 166 distinct ordinate rows once per spline in plain Python, so its
bits depend on neither a BLAS build nor the Python version; eval_spline and
eval_many (numpy) both end in quintic_form, so a point and a batch agree bit
for bit.  The exact inverse of the domain-point collocation matrix, over one
denominator, bounds the condition number and gives exact Lagrange
interpolation as one sparse integer mat-vec, whose integers the spline keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, compress, islice
from math import gcd, inf, isfinite, lcm
from numbers import Real
from operator import add, itemgetter, mul, truediv
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: eval_many imports numpy when it runs
    import numpy as np

from .errors import (BoundViolated, DimensionMismatch, DomainError, OutsideDomain,
                     PS12Error, UnsupportedBasis)
from .geometry import (FLOAT_FACE_MATRICES, PS12Frame, Point2, S3_ELEMENTS, SNAP_TOL, _as_bary,
                       _bary, _frame, face_bary, from_bary, s3_apply_bary)
from .linalg import _integer_solve, identity, inf_norm, sparse_integer_matrix, sparse_mat_vec
from .marsden_catalog import BASIS_IDS, catalog
from .rational import common_denominator, finite_numbers, is_exact
from .simplex_spline import (FaceForms, _face_ordinates, _locate, float_value, functional_row,
                             quintic_form)


@dataclass(frozen=True)
class Spline:
    """Coefficient vector in a chosen basis over a frame."""

    frame: PS12Frame
    basis: str
    coeffs: tuple

    def __post_init__(self):
        _frame(self.frame)
        if self.basis not in BASIS_IDS:
            raise UnsupportedBasis(f"basis {self.basis!r} not in a..f")
        if len(finite_numbers(self.coeffs, "the coefficients")) != 39:
            raise DimensionMismatch(f"need 39 coefficients, got {len(self.coeffs)}")

    def __call__(self, p):
        return eval_spline(self, p)

    def __getattr__(self, name: str):  # coeffs of an _unchecked spline
        if name != "coeffs" or "_int_coeffs" not in vars(self):
            raise AttributeError(name)
        vars(self)["coeffs"] = tuple(Fraction(x, self._int_coeffs[0]) for x in self._int_coeffs[1])
        return self.coeffs

    @cached_property
    def _int_coeffs(self):
        """(L, numerators) of exact coefficients, None for float ones; worked out once."""
        return common_denominator(self.coeffs) if is_exact(self.coeffs) else None

    @cached_property
    def exact(self) -> bool:
        """True when the coefficients and the frame corners are exact."""
        return self._int_coeffs is not None and self.frame._int_corners is not None

    @cached_property
    def _int_ords(self) -> dict:
        """Face index -> integer ordinates there, filled by _exact_ordinates."""
        return {}

    def _exact_ordinates(self, fi: int) -> tuple[int, list]:
        """(D, ords): the exact spline's ordinates on face fi as integers over
        D, the face's nonzero table entries times the coefficients, once."""
        if fi not in self._int_ords:
            self._int_ords[fi] = self._contract(_nonzero_entries(self.basis)[0][fi - 1], True)
        return scaled_basis_tables(self.basis)[0] * self._int_coeffs[0], self._int_ords[fi]

    @cached_property
    def _float_forms(self) -> FaceForms:
        """The 12 x 21 float face ordinates every float value reads, once per
        spline: the 166 distinct rows of _nonzero_entries contracted, laid out face by face."""
        _, rows, maps = _nonzero_entries(self.basis)
        values = self._contract(rows, False)
        return FaceForms(self.frame, tuple(m(values) for m in maps))

    def _contract(self, rows, exact: bool) -> list:
        """_packed rows times the coefficients: exact, integers over Q L; float, each row's sum,
        left to right from 0, of the float coefficients (x / L of exact ones) times its entries,
        over Q, so DomainError when coefficients beyond DBL_MAX / Q (about 1.4e303) overflow."""
        gather, entries, counts = rows
        ic = self._int_coeffs
        if exact:
            products = map(mul, gather(ic[1]), entries)
            return [sum(islice(products, n)) for n in counts]
        try:  # x / L of an exact coefficient beyond DBL_MAX overflows
            fc = [x / ic[0] for x in ic[1]] if ic else [float(c) for c in self.coeffs]
        except OverflowError:
            fc = [inf] * 39
        products, q = map(mul, gather(fc), entries), scaled_basis_tables(self.basis)[0]
        values = [reduce(add, islice(products, n), 0.0) / q for n in counts]
        if not all(map(isfinite, values)):
            raise DomainError("coefficients beyond about 1.4e303 overflow the float ordinates")
        return values


@lru_cache(maxsize=None)
def scaled_basis_tables(basis_id: str) -> tuple:
    """Per-face ordinate tables of the scaled functions S_i = w_i Q_i.

    Returns (Q, T): T is a 12 x 21 x 39 nested tuple of integers over the
    one denominator Q (frame independent), T[f][s][i] / Q the s-th ordinate
    of S_i on face f + 1.  With Q_i's integer ordinates n and w_i / den_i =
    p_i / q_i in lowest terms, Q is the lcm of the q_i and T[f][s][i] is
    (p_i Q / q_i) n.
    """
    parts = []
    for el in catalog(basis_id).elements:
        den, faces = _face_ordinates(el.multiset)
        scale = el.weight / den
        parts.append((scale.numerator, scale.denominator, [f or (0,) * 21 for f in faces]))
    q = lcm(*(qi for _, qi, _ in parts))
    parts = [(p * (q // qi), faces) for p, qi, faces in parts]
    return q, tuple(tuple(tuple(k * faces[fi][s] for k, faces in parts) for s in range(21))
                    for fi in range(12))


def _packed(rows, kind) -> tuple:
    """(gather, entries, counts) of sparse rows of (column, entry) pairs: a function that picks
    their coefficients out of 39, their entries by kind, and each row's count."""
    columns, entries = zip(*chain.from_iterable(rows))
    return itemgetter(*columns), tuple(map(kind, entries)), tuple(map(len, rows))


@lru_cache(maxsize=None)
def _nonzero_entries(basis_id: str) -> tuple:
    """(faces, rows, maps) of the nonzero entries of scaled_basis_tables.  Faces that share a
    domain point share its row (the bases are C3 across the split lines): 166 distinct rows of
    the 252.  rows is _packed over these, their entries as floats (at most 17 bits, so exact);
    maps[f] picks face f + 1's 21 ordinates from the 166 row values; faces[f] is _packed in
    ints over face f + 1's own rows, read by the exact contraction."""
    _, table = scaled_basis_tables(basis_id)
    index = {}
    maps = [[index.setdefault(tuple(compress(enumerate(row), row)), len(index)) for row in face]
            for face in table]
    rows = list(index)
    floats = {t: float(t) for row in rows for _, t in row}  # one float per distinct entry
    return (tuple(_packed([rows[k] for k in m], int) for m in maps), _packed(rows, floats.get),
            tuple(itemgetter(*m) for m in maps))


def basis_values(basis_id: str, beta) -> tuple:
    """The 39 values S_i at macro-barycentrics beta (Fractions for exact beta): functional_row
    times each column of the face's scaled table, summed from 0, over Q; OutsideDomain outside."""
    return _basis_values(basis_id, *_as_bary(beta))


def _basis_values(basis_id: str, d, beta) -> tuple:
    """basis_values at beta in geometry._bary's form (integers over d, or floats with d None)."""
    fi, den, row = functional_row(d, beta)
    q, table = scaled_basis_tables(basis_id)
    div = truediv if d is None else Fraction
    return tuple(div(reduce(add, map(mul, row, col), 0), den * q) for col in zip(*table[fi - 1]))


def eval_spline(s: Spline, p) -> object:
    """Value of the spline at a point of its frame: exact (on integers to one Fraction) when the
    coefficients, frame and point are exact, else _bary's floats (n / d at an exact point) into
    float_value, the one float route; both end in quintic_form.  OutsideDomain outside the
    closed macrotriangle, DomainError unless p is a pair of numbers."""
    d, beta = _bary(s.frame, p)
    if d is None or s._int_coeffs is None:
        return float_value(s._float_forms.ords, beta if d is None else [n / d for n in beta])
    fi, _ = _locate(beta, d)
    den, g = face_bary(fi, beta, d)
    q, ords = s._exact_ordinates(fi)
    return Fraction(quintic_form(ords, *g), den ** 5 * q)


def _locate_faces(b1, b2, b3):
    """geometry.locate_face_bary's cascade on arrays of barycentrics that
    are all inside the triangle: the same tests, so the same ties."""
    from numpy import select, where
    return select(
        [2 * b1 >= 1, 2 * b2 >= 1, 2 * b3 >= 1, (b2 >= b1) & (b1 >= b3), b2 >= b1, b3 >= b1],
        [where(b2 >= b3, 1, 6), where(b1 >= b3, 2, 3), where(b2 >= b1, 4, 5), 7,
         where(b2 >= b3, 8, 9), 10],
        where(b3 >= b2, 11, 12))


@lru_cache(maxsize=1)
def _float_face_matrices() -> np.ndarray:
    """geometry.FLOAT_FACE_MATRICES as one (12, 3, 3) array, made once."""
    import numpy as np
    return np.array(FLOAT_FACE_MATRICES)


def eval_many(s: Spline, barys) -> np.ndarray:
    """Float values at an (n, 3) array of macro-barycentrics in one numpy
    batch, each with the bits of float eval_spline there: the snap, face and
    face barycentrics of simplex_spline.float_value on arrays, then the same
    quintic_form on columns.  Raises OutsideDomain if any point is outside the
    closed macrotriangle, DimensionMismatch for another shape, PS12Error without
    numpy (not a dependency of the package: its test extra installs numpy)."""
    try:
        import numpy as np
    except ImportError:
        raise PS12Error("eval_many needs numpy, which is not installed") from None
    b = np.array(barys, dtype=float)
    if b.ndim != 2 or b.shape[1] != 3:
        raise DimensionMismatch(f"need an (n, 3) array of barycentrics, got shape {b.shape}")
    c = np.where(b < 0, 0.0, b)  # max(x, 0.0), signed zeros included
    t = c[:, 0] + c[:, 1] + c[:, 2]  # a sum of 0 or inf: no point to snap to, as in snap_bary
    snap = (b < 0).any(axis=1) & (b >= -SNAP_TOL).all(axis=1) & (t > 0) & (t < np.inf)
    b[snap] = c[snap] / t[snap, None]
    out = ~(np.isfinite(b) & (b >= 0)).all(axis=1)  # NaN and inf too
    if out.any():
        raise OutsideDomain(f"{out.sum()} points outside the macrotriangle")
    face = _locate_faces(*b.T) - 1
    m = _float_face_matrices()[face]  # (n, 3, 3)
    g = m[:, :, 0] * b[:, :1] + m[:, :, 1] * b[:, 1:2] + m[:, :, 2] * b[:, 2:]
    return quintic_form(np.array(s._float_forms.ords)[face].T, *g.T)


def face_forms(s: Spline) -> FaceForms:
    """The spline as one quintic Bernstein form per face, the scaled tables contracted with
    the coefficients: Fractions of the integer ordinates, whose (D, ords) per face go over as
    FaceForms._int_ords, when the coefficients and the frame are exact, else the float ones."""
    if not s.exact:
        return s._float_forms
    faces = tuple(map(s._exact_ordinates, range(1, 13)))
    return _unchecked(FaceForms, frame=s.frame, _int_ords=faces,
                      ords=tuple(tuple(Fraction(o, d) for o in ords) for d, ords in faces))


# ---------------------------------------------------------------------------
# Domain-point collocation and interpolation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _collocation(basis_id: str) -> tuple:
    """(M, d, N, rows): the exact collocation matrix M[i][j] = S_j(domain point i), its inverse
    as integers N over one denominator d > 0 in lowest terms, and N's sparse rows."""
    rows = tuple(basis_values(basis_id, el.domain_point) for el in catalog(basis_id).elements)
    d, n = _integer_solve(rows, identity(len(rows)))
    g = gcd(d, *(x for r in n for x in r)) * (1 if d > 0 else -1)
    n = tuple(tuple(x // g for x in r) for r in n)
    return rows, d // g, n, sparse_integer_matrix(n)[1]


def collocation_at_domain_points(basis_id: str):
    """(M, M^-1, K): exact collocation matrix M[i][j] = S_j(domain point i),
    its exact inverse, and the max-norm condition bound K = ||M^-1||_inf.

    Rows of M sum to one, so ||M||_inf = 1 and K is the condition number.
    """
    m, d, n, _ = _collocation(basis_id)
    minv = tuple(tuple(Fraction(x, d) for x in r) for r in n)
    return m, minv, Fraction(inf_norm(n), abs(d))


@lru_cache(maxsize=None)
def _float_inverse(basis_id: str) -> tuple:
    """The entries x / d of _collocation's inverse as floats, made on the first float call."""
    _, d, n, _ = _collocation(basis_id)
    return tuple(tuple(x / d for x in r) for r in n)


def lagrange_interpolate(basis_id: str, frame: PS12Frame, values) -> Spline:
    """The unique spline matching the 39 values at the domain points.

    Exact values give Fraction coefficients from one sparse integer mat-vec
    with the cached inverse, float values give float coefficients.
    DomainError unless frame is a PS12Frame.
    """
    frame, values = _frame(frame), finite_numbers(values, "the values")
    if len(values) != 39:
        raise DimensionMismatch(f"need 39 values, got {len(values)}")
    if not is_exact(values):
        # left to right from 0 (sum() compensates floats from Python 3.12)
        return Spline(frame, basis_id, tuple(reduce(add, map(mul, r, values), 0)
                                             for r in _float_inverse(basis_id)))
    _, d, _, rows = _collocation(basis_id)
    den, v = common_denominator(values)
    return _unchecked(Spline, frame=frame, basis=basis_id,
                      _int_coeffs=(den * d, sparse_mat_vec(rows, v)))


def _unchecked(cls, **fields):
    """A Spline, GlobalSpline or FaceForms of checked fields, no __post_init__; coeffs made lazily."""
    vars(obj := object.__new__(cls)).update(fields)
    return obj


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

def control_distance_bound_check(s: Spline, hessian_bound) -> dict:
    """Check |c_i - f(domain point i)| <= 2 K h^2 * hessian_bound for all i.

    hessian_bound must dominate the max-norm of the Hessian of the spline
    over the triangle (caller-supplied; exact for polynomial test data).
    Returns a report with the largest gap and the bound; raises
    BoundViolated when the inequality fails, which would indicate a bug,
    and DomainError unless hessian_bound is a nonnegative real number (NaN
    is none).
    """
    if not isinstance(hessian_bound, Real) or not hessian_bound >= 0:
        raise DomainError(f"a Hessian bound is a nonnegative number, not {hessian_bound!r}")
    _, _, cond = collocation_at_domain_points(s.basis)
    spec = catalog(s.basis)
    h2 = max((p.x - q.x) ** 2 + (p.y - q.y) ** 2 for p, q in combinations(s.frame.corners, 2))
    bound = 2 * cond * h2 * hessian_bound
    gaps = [abs(c - eval_spline(s, from_bary(s.frame, el.domain_point)))
            for el, c in zip(spec.elements, s.coeffs)]
    worst = max(gaps)
    if worst > bound:
        raise BoundViolated(f"max gap {worst} exceeds bound {bound}")
    return {"max_gap": worst, "bound": bound, "gaps": gaps}
