"""Exact dense linear algebra over the rationals.

This is the package's only exact elimination; ``basis_search``,
``assembly`` and ``spline_fn`` call it.

Matrices are lists of lists of ``int`` or ``Fraction``.  Every routine scales
each row to integers by the lcm of its denominators and builds one
fraction-free (Bareiss 1968) echelon a row at a time (:func:`append_row`,
which the candidate trie in ``basis_search`` also walks with); all its
divisions are exact, so no gcd is taken.  :func:`pivot_columns` reads the
pivots' columns, as many as the rank; :func:`_integer_solve`
back-substitutes in integers and returns the integer solution with the final
pivot d (the determinant up to sign), which :func:`solve` divides once per
entry.  Callers that contract the solution further in integers (the Lagrange
interpolation in ``spline_fn``) keep the pair and divide only at the end.
Right-hand sides of :func:`solve` are rational matrices; :func:`inverse` is
``solve(A, identity)``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SingularSystem
from .rational import _over_lcm, common_denominator

Matrix = list  # list[list[int | Fraction]]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(A: Matrix, x: list) -> list:
    return [sum((a * xv for a, xv in zip(row, x)), start=Fraction(0)) for row in A]


def sparse_integer_matrix(A: Matrix) -> tuple[int, tuple]:
    """(d, rows): the rational matrix A as integer rows over one denominator
    d, each row as the (column, entry) pairs of its nonzero entries."""
    d, nums = common_denominator([x for row in A for x in row])
    return d, tuple(tuple((j, x) for j, x in enumerate(nums[k:k + len(A[0])]) if x)
                    for k in range(0, len(nums), len(A[0])))


def sparse_mat_vec(rows, v) -> list:
    """sparse_integer_matrix's integer rows times the integer vector v."""
    return [sum([x * v[j] for j, x in row]) for row in rows]


def _apply_rows(d: int, rows, pairs) -> list:
    """(numerator, denominator) of each of sparse_integer_matrix's rows / d times the pairs."""
    den, v = _over_lcm(pairs)
    return [(x, den * d) for x in sparse_mat_vec(rows, v)]


def inf_norm(A: Matrix) -> Fraction:
    return max(sum(abs(x) for x in row) for row in A)


def _integer_rows(A: Matrix) -> tuple[list, list]:
    """Each row scaled by the lcm of its denominators: (integer rows, scales).

    Row scaling keeps the rank and the solutions of a system whose
    right-hand side is scaled with it.
    """
    rows, scales = [], []
    for row in A:
        den, nums = common_denominator(row)
        rows.append(nums)
        scales.append(den)
    return rows, scales


def reduce_row(echelon: list, row) -> list:
    """An integer row reduced against an echelon of (pivot column, row)
    pairs: zero in every pivot column and scaled by the last pivot.  Where
    the row is already zero in the pivot column, the Bareiss step would only
    scale it by the ratio of consecutive pivots; these telescope, so it is
    skipped, the next step divides exactly by the last pivot used, and the
    row is scaled once, at the end."""
    base = 1
    for c, e in echelon:
        x = row[c]
        if x:
            p = e[c]
            row = [(a * p - x * b) // base for a, b in zip(row, e)]
            base = p
    if echelon and (last := echelon[-1][1][echelon[-1][0]]) != base:
        row = [a * last // base for a in row]
    return row


def append_row(echelon: list, row, width: int) -> bool:
    """Reduce ``row`` and append it, pivoted on its first nonzero entry among
    the first ``width``; trailing entries ride along.  False, with the
    echelon unchanged, when those entries reduce to zero."""
    row = reduce_row(echelon, row)
    for c in range(width):
        if row[c]:
            echelon.append((c, row))
            return True
    return False


def _eliminate(rows: list, width: int, strict: bool) -> list:
    """The echelon of integer rows appended in order; a dependent row is
    dropped, or raises SingularSystem when ``strict``."""
    echelon = []
    for i, row in enumerate(rows):
        if not append_row(echelon, row, width) and strict:
            raise SingularSystem(f"singular at row {i}")
    return echelon


# No caller in src/: perfbench/tracer.py wraps basis_search's import of this name.
def bareiss(rows: list) -> tuple[int, int]:
    """Fraction-free elimination on an integer matrix.

    Returns (rank, det) where det is the determinant when the matrix is
    square and of full rank, else 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    echelon = _eliminate(rows, n, strict=False)
    if not (m == n == len(echelon)):
        return len(echelon), 0
    # the last pivot, signed by the inversions of the pivot columns
    cols = [c for c, _ in echelon]
    sign = (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return n, sign * (echelon[-1][1][cols[-1]] if n else 1)


def _integer_solve(A: Matrix, B: Matrix) -> tuple[int, list]:
    """(d, X'): the solution of A X = B as integers X' = d X over one pivot d.

    d is the last Bareiss pivot, nonzero and possibly negative.  A and B hold
    ints or Fractions.  Raises SingularSystem when A is singular.
    """
    n = len(A)
    if len(B) != n or any(len(a) != n for a in A):
        raise DimensionMismatch("solve needs a square A and one row of B per row of A")
    if n == 0:
        return 1, []
    rows, _ = _integer_rows([list(a) + list(b) for a, b in zip(A, B)])
    echelon = _eliminate(rows, n, strict=True)
    c, last = echelon[-1]
    d = last[c]
    # U X' = d Y has the integer solution X' = d X (Cramer), so each
    # division by the pivot below is exact; row k of U is zero in the
    # pivot columns of the rows before it
    xs = [None] * n
    for k in range(n - 1, -1, -1):
        c, row = echelon[k]
        acc = [d * y for y in row[n:]]
        for j, _ in echelon[k + 1:]:
            u = row[j]
            if u:
                acc = [a - u * x for a, x in zip(acc, xs[j])]
        xs[c] = [a // row[c] for a in acc]
    return d, xs


def solve(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B exactly for the n x m matrix X of Fractions.

    A and B hold ints or Fractions.  Raises SingularSystem when A is
    singular.
    """
    d, xs = _integer_solve(A, B)
    return [[Fraction(x, d) for x in xi] for xi in xs]


def inverse(A: Matrix) -> Matrix:
    return solve(A, identity(len(A)))


def pivot_columns(A: Matrix) -> tuple:
    """Columns of the pivots of A's row echelon form, in order.

    They are linearly independent and span A's column space, so the
    restriction of A's rows to them is injective on A's row space.  Applied
    to a transpose, they index a maximal independent subset of the rows,
    the first one found in order.
    """
    if not A:
        return ()
    return tuple(sorted(c for c, _ in _eliminate(_integer_rows(A)[0], len(A[0]), strict=False)))
